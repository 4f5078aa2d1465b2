// Durable factorization: crash-consistent checkpoint/restore of
// FactoredCoupled (DESIGN.md §14). The round-trip property -- a restored
// handle's solve is bitwise identical to the originating handle's -- must
// hold for every strategy and both factor precisions; every torn, corrupt
// or mismatched checkpoint must surface as a clean classified error (or a
// checkpoint_fallback refactorization), never a wrong answer or a leak.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/memory.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "coupled/coupled.h"

namespace cs::coupled {
namespace {

using fembem::CoupledSystem;
using fembem::SystemParams;

const CoupledSystem<double>& real_system() {
  static auto sys = [] {
    SystemParams p;
    p.total_unknowns = 1500;
    return fembem::make_pipe_system<double>(p);
  }();
  return sys;
}

const CoupledSystem<double>& other_system() {
  // 2000 unknowns rounds to a genuinely different pipe mesh than 1500
  // (1400 would round to the *same* mesh and legitimately share the
  // fingerprint).
  static auto sys = [] {
    SystemParams p;
    p.total_unknowns = 2000;
    return fembem::make_pipe_system<double>(p);
  }();
  return sys;
}

const CoupledSystem<complexd>& complex_system() {
  static auto sys = [] {
    SystemParams p;
    p.total_unknowns = 1200;
    p.kappa = 1.0;
    p.sigma_real = 2.0;
    p.sigma_imag = 0.3;
    p.symmetric_bem = false;
    return fembem::make_pipe_system<complexd>(p);
  }();
  return sys;
}

/// Per-process file names: ctest -j runs every test in its own process,
/// and one process must never truncate a checkpoint another is reading.
std::string ckpt_path(const std::string& name) {
  return ::testing::TempDir() + "cs_ckpt_" + std::to_string(::getpid()) +
         "_" + name + ".bin";
}

/// Deterministic pseudo-random RHS block.
template <class T>
la::Matrix<T> rhs_block(index_t n, index_t nrhs, std::uint32_t seed) {
  la::Matrix<T> B(n, nrhs);
  std::uint32_t s = seed;
  for (index_t j = 0; j < nrhs; ++j)
    for (index_t i = 0; i < n; ++i) {
      s = s * 1664525u + 1013904223u;
      B(i, j) = T(1.0 + double(s >> 8) / double(1u << 24));
    }
  return B;
}

template <class T>
bool bitwise_equal(const la::Matrix<T>& A, const la::Matrix<T>& B) {
  return A.rows() == B.rows() && A.cols() == B.cols() &&
         std::memcmp(A.data(), B.data(),
                     static_cast<std::size_t>(A.rows()) *
                         static_cast<std::size_t>(A.cols()) * sizeof(T)) == 0;
}

/// Solve the system's built-in RHS plus extra pseudo-random columns
/// through a handle and return the solution block (B_v stacked over B_s).
template <class T>
std::pair<la::Matrix<T>, la::Matrix<T>> solve_block(
    const CoupledSystem<T>& sys, const FactoredCoupled<T>& h, index_t nrhs) {
  la::Matrix<T> Bv = rhs_block<T>(sys.nv(), nrhs, 7u);
  la::Matrix<T> Bs = rhs_block<T>(sys.ns(), nrhs, 11u);
  for (index_t i = 0; i < sys.nv(); ++i) Bv(i, 0) = sys.b_v[i];
  for (index_t i = 0; i < sys.ns(); ++i) Bs(i, 0) = sys.b_s[i];
  auto st = h.solve(Bv.view(), Bs.view());
  EXPECT_TRUE(st.success) << st.failure;
  return {std::move(Bv), std::move(Bs)};
}

class CheckpointSweep
    : public ::testing::TestWithParam<std::tuple<Strategy, Precision>> {};

TEST_P(CheckpointSweep, RoundTripSolveIsBitwiseIdentical) {
  const auto [strategy, precision] = GetParam();
  const auto& sys = real_system();
  Config cfg;
  cfg.strategy = strategy;
  cfg.factor_precision = precision;
  if (precision == Precision::kSingle) cfg.refine_iterations = 2;
  cfg.eps = 1e-4;
  cfg.n_c = 64;
  cfg.n_S = 160;
  cfg.n_b = 2;

  auto original = factorize_coupled(sys, cfg);
  ASSERT_TRUE(original.ok()) << original.stats().failure;
  const std::string path =
      ckpt_path(std::string(strategy_name(strategy)) + "_" +
                precision_name(precision));
  SolveError err;
  const std::size_t bytes = original.save(path, &err);
  ASSERT_GT(bytes, 0u) << err.site << ": " << err.detail;

  // Restore with a default (runtime-only) config: the factorization-shaping
  // fields must come back from the checkpoint itself.
  Config runtime;
  auto restored = load_factored(path, sys, runtime);
  ASSERT_TRUE(restored.ok()) << restored.stats().failure;
  EXPECT_EQ(restored.stats().checkpoint_source, "checkpoint");
  EXPECT_EQ(restored.stats().checkpoint_bytes, bytes);
  EXPECT_TRUE(restored.stats().recoveries.empty());
  EXPECT_EQ(restored.config().strategy, strategy);
  EXPECT_EQ(restored.config().factor_precision, precision);
  EXPECT_EQ(restored.stats().factor_bytes, original.stats().factor_bytes);

  const auto [xv0, xs0] = solve_block(sys, original, 3);
  const auto [xv1, xs1] = solve_block(sys, restored, 3);
  EXPECT_TRUE(bitwise_equal(xv0, xv1)) << strategy_name(strategy);
  EXPECT_TRUE(bitwise_equal(xs0, xs1)) << strategy_name(strategy);

  // The round trip must survive a different ambient thread count too.
  {
    ScopedNumThreads two(2);
    const auto [xv2, xs2] = solve_block(sys, restored, 3);
    EXPECT_TRUE(bitwise_equal(xv0, xv2));
    EXPECT_TRUE(bitwise_equal(xs0, xs2));
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, CheckpointSweep,
    ::testing::Combine(
        ::testing::ValuesIn(kAllStrategies),
        ::testing::Values(Precision::kDouble, Precision::kSingle)),
    [](const ::testing::TestParamInfo<std::tuple<Strategy, Precision>>&
           info) {
      std::string name =
          std::string(strategy_name(std::get<0>(info.param))) + "_" +
          precision_name(std::get<1>(info.param));
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Checkpoint, ComplexSystemRoundTrips) {
  const auto& sys = complex_system();
  Config cfg;
  cfg.strategy = Strategy::kMultiSolveCompressed;
  cfg.eps = 1e-4;
  cfg.n_c = 64;
  cfg.n_S = 160;
  auto original = factorize_coupled(sys, cfg);
  ASSERT_TRUE(original.ok()) << original.stats().failure;
  const std::string path = ckpt_path("complex");
  ASSERT_GT(original.save(path), 0u);
  auto restored = load_factored(path, sys, Config{});
  ASSERT_TRUE(restored.ok()) << restored.stats().failure;
  const auto [xv0, xs0] = solve_block(sys, original, 2);
  const auto [xv1, xs1] = solve_block(sys, restored, 2);
  EXPECT_TRUE(bitwise_equal(xv0, xv1));
  EXPECT_TRUE(bitwise_equal(xs0, xs1));
  std::remove(path.c_str());
}

TEST(Checkpoint, OutOfCorePanelsRoundTripThroughTheCheckpoint) {
  // OOC-resident panels are streamed inline into the checkpoint on save
  // and re-spilled to a fresh store on load; the restored handle must
  // solve identically while its factors stay out of core.
  const auto& sys = real_system();
  Config cfg;
  cfg.strategy = Strategy::kMultiSolveCompressed;
  cfg.eps = 1e-4;
  cfg.n_c = 64;
  cfg.n_S = 160;
  cfg.out_of_core = true;
  auto original = factorize_coupled(sys, cfg);
  ASSERT_TRUE(original.ok()) << original.stats().failure;
  const std::string path = ckpt_path("ooc");
  ASSERT_GT(original.save(path), 0u);
  auto restored = load_factored(path, sys, Config{});
  ASSERT_TRUE(restored.ok()) << restored.stats().failure;
  EXPECT_TRUE(restored.config().out_of_core);
  const auto [xv0, xs0] = solve_block(sys, original, 2);
  const auto [xv1, xs1] = solve_block(sys, restored, 2);
  EXPECT_TRUE(bitwise_equal(xv0, xv1));
  EXPECT_TRUE(bitwise_equal(xs0, xs1));
  std::remove(path.c_str());
}

TEST(Checkpoint, SaveOnUnfactoredHandleFailsCleanly) {
  FactoredCoupled<double> empty;
  SolveError err;
  EXPECT_EQ(empty.save(ckpt_path("empty"), &err), 0u);
  EXPECT_EQ(err.code, ErrorCode::kInternal);
}

/// Factorize + save once, shared by the corruption tests below; the file
/// is removed at process exit.
const std::string& good_checkpoint() {
  static const struct Master {
    std::string path;
    ~Master() { std::remove(path.c_str()); }
  } master{[] {
    Config cfg;
    cfg.strategy = Strategy::kMultiSolveCompressed;
    cfg.eps = 1e-4;
    cfg.n_c = 64;
    cfg.n_S = 160;
    auto h = factorize_coupled(real_system(), cfg);
    EXPECT_TRUE(h.ok()) << h.stats().failure;
    const std::string p = ckpt_path("master");
    EXPECT_GT(h.save(p), 0u);
    return p;
  }()};
  return master.path;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A failed load with auto_recover off must return a clean classified
/// error at `site` and leave tracked memory at its pre-call level.
void expect_clean_failure(const std::string& path, const std::string& site) {
  // Materialize the lazy system static before taking the baseline (each
  // test may run in a fresh process under ctest).
  (void)real_system().nv();
  const std::size_t before = MemoryTracker::instance().current();
  Config cfg;
  cfg.auto_recover = false;
  auto h = load_factored(path, real_system(), cfg);
  EXPECT_FALSE(h.ok());
  EXPECT_EQ(h.stats().error.code, ErrorCode::kIo) << h.stats().failure;
  EXPECT_EQ(h.stats().error.site, site) << h.stats().failure;
  EXPECT_TRUE(h.stats().checkpoint_source.empty());
  EXPECT_EQ(MemoryTracker::instance().current(), before)
      << "failed load leaked tracked bytes";
}

TEST(Checkpoint, MissingFileFailsCleanly) {
  expect_clean_failure(ckpt_path("no_such_file"), "ckpt.open");
}

TEST(Checkpoint, TruncatedFileIsDetectedAsTorn) {
  auto bytes = slurp(good_checkpoint());
  ASSERT_GT(bytes.size(), 200u);
  const std::string path = ckpt_path("truncated");
  // Cut anywhere before the trailer: the commit record is gone.
  bytes.resize(bytes.size() / 2);
  spit(path, bytes);
  expect_clean_failure(path, "ckpt.torn");
  std::remove(path.c_str());
}

TEST(Checkpoint, FlippedPayloadByteIsDetectedAsCorrupt) {
  auto bytes = slurp(good_checkpoint());
  ASSERT_GT(bytes.size(), 200u);
  const std::string path = ckpt_path("flipped");
  bytes[bytes.size() / 3] ^= 0x40;  // somewhere inside a payload section
  spit(path, bytes);
  expect_clean_failure(path, "ckpt.corrupt");
  std::remove(path.c_str());
}

/// Offset of the footer in a checkpoint image. Trailer: [footer offset
/// u64][tail magic u64].
std::uint64_t footer_offset(const std::vector<char>& bytes) {
  std::uint64_t offset = 0;
  std::memcpy(&offset, bytes.data() + bytes.size() - 16, 8);
  return offset;
}

/// Re-sign the footer CRC (the u32 just before the trailer) after an edit.
void reseal_footer(std::vector<char>& bytes) {
  const std::uint64_t offset = footer_offset(bytes);
  const std::size_t footer_end = bytes.size() - 16;  // footer crc inclusive
  const std::uint32_t crc = serialize::crc32c(
      0, bytes.data() + offset, footer_end - 4 - offset);
  std::memcpy(bytes.data() + footer_end - 4, &crc, 4);
}

/// The good checkpoint restamped with format `version`. The version is
/// the u32 at footer_offset + 8; the footer CRC is re-signed so only the
/// version is "wrong", not the bytes around it.
std::vector<char> with_format_version(std::uint32_t version) {
  auto bytes = slurp(good_checkpoint());
  if (bytes.size() <= 200) {
    ADD_FAILURE() << "checkpoint too small: " << bytes.size() << " bytes";
    return bytes;
  }
  std::memcpy(bytes.data() + footer_offset(bytes) + 8, &version, 4);
  reseal_footer(bytes);
  return bytes;
}

/// The good checkpoint with the config-section field at byte `at`
/// overwritten by `value`, the section CRC and the footer CRC re-signed:
/// the file verifies, only the stored config is wrong. The footer lists
/// per section {name length u64, name, offset u64, bytes u64, crc u32}
/// after magic u64, version u32 and the section count u32.
template <class P>
std::vector<char> with_config_field(std::size_t at, P value) {
  auto bytes = slurp(good_checkpoint());
  std::size_t pos = footer_offset(bytes) + 8 + 4;
  std::uint32_t nsections = 0;
  std::memcpy(&nsections, bytes.data() + pos, 4);
  pos += 4;
  bool patched = false;
  for (std::uint32_t k = 0; k < nsections; ++k) {
    std::uint64_t name_len = 0, offset = 0, size = 0;
    std::memcpy(&name_len, bytes.data() + pos, 8);
    const std::string name(bytes.data() + pos + 8, name_len);
    pos += 8 + name_len;
    std::memcpy(&offset, bytes.data() + pos, 8);
    std::memcpy(&size, bytes.data() + pos + 8, 8);
    pos += 16;
    if (name == "config") {
      EXPECT_LE(at + sizeof value, size);
      std::memcpy(bytes.data() + offset + at, &value, sizeof value);
      const std::uint32_t crc =
          serialize::crc32c(0, bytes.data() + offset, size);
      std::memcpy(bytes.data() + pos, &crc, 4);
      patched = true;
    }
    pos += 4;
  }
  EXPECT_TRUE(patched) << "no config section in the checkpoint";
  reseal_footer(bytes);
  return bytes;
}

TEST(Checkpoint, WrongFormatVersionIsRejected) {
  const std::string path = ckpt_path("version");
  spit(path, with_format_version(999));
  expect_clean_failure(path, "ckpt.version");
  std::remove(path.c_str());
}

TEST(Checkpoint, PreviousFormatVersionFallsBackToRefactorization) {
  // A version-1 checkpoint (config section with the retired H-LDL^T and
  // range-finder fields) is refused at ckpt.version and, with
  // auto_recover, refactorized from the live system.
  ASSERT_GT(serialize::kFormatVersion, 1u);
  const std::string path = ckpt_path("version1");
  spit(path, with_format_version(1));
  expect_clean_failure(path, "ckpt.version");
  Config cfg;  // auto_recover defaults to true
  cfg.eps = 1e-4;
  auto h = load_factored(path, real_system(), cfg);
  ASSERT_TRUE(h.ok()) << h.stats().failure;
  EXPECT_EQ(h.stats().checkpoint_source, "refactorized");
  ASSERT_FALSE(h.stats().recoveries.empty());
  EXPECT_EQ(h.stats().recoveries.front().action, "checkpoint_fallback");
  EXPECT_NE(h.stats().recoveries.front().detail.find("ckpt.version"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(Checkpoint, InvalidStoredConfigIsRejected) {
  // Byte offsets in the config section (write_config): strategy i32 at 0,
  // n_c i64 at 4, ordering i32 at 53, refine_tolerance f64 at 61,
  // factor_precision i32 at 69. Each patched file has valid CRCs but a
  // config that factorize_coupled would refuse.
  const std::string path = ckpt_path("bad_config");
  spit(path, with_config_field<double>(61, -1.0));  // refine_tolerance < 0
  expect_clean_failure(path, "ckpt.corrupt");
  spit(path, with_config_field<std::int32_t>(0, 99));  // no such strategy
  expect_clean_failure(path, "ckpt.corrupt");
  spit(path, with_config_field<std::int32_t>(53, -1));  // no such ordering
  expect_clean_failure(path, "ckpt.corrupt");
  spit(path, with_config_field<std::int32_t>(69, 2));  // no such precision
  expect_clean_failure(path, "ckpt.corrupt");
  // 2^40 + 64 would narrow to a valid-looking n_c of 64.
  spit(path,
       with_config_field<std::int64_t>(4, (std::int64_t{1} << 40) + 64));
  expect_clean_failure(path, "ckpt.corrupt");
  // Rewriting refine_tolerance with its saved value (0) still loads: the
  // edited values, not the resealing, are what the reader refuses.
  spit(path, with_config_field<double>(61, 0.0));
  Config strict;
  strict.auto_recover = false;
  EXPECT_TRUE(load_factored(path, real_system(), strict).ok());

  spit(path, with_config_field<double>(61, -1.0));
  Config cfg;  // auto_recover defaults to true
  cfg.eps = 1e-4;
  auto h = load_factored(path, real_system(), cfg);
  ASSERT_TRUE(h.ok()) << h.stats().failure;
  EXPECT_EQ(h.stats().checkpoint_source, "refactorized");
  ASSERT_FALSE(h.stats().recoveries.empty());
  EXPECT_EQ(h.stats().recoveries.front().action, "checkpoint_fallback");
  EXPECT_NE(h.stats().recoveries.front().detail.find("ckpt.corrupt"),
            std::string::npos);
  EXPECT_GE(h.config().refine_tolerance, 0.0);
  std::remove(path.c_str());
}

TEST(Checkpoint, WrongSystemFingerprintIsRejected) {
  // Materialize the lazy statics before taking the memory baseline.
  const std::string& path = good_checkpoint();
  (void)other_system().nv();
  const std::size_t before = MemoryTracker::instance().current();
  Config cfg;
  cfg.auto_recover = false;
  auto h = load_factored(path, other_system(), cfg);
  EXPECT_FALSE(h.ok());
  EXPECT_EQ(h.stats().error.code, ErrorCode::kIo);
  EXPECT_EQ(h.stats().error.site, "ckpt.fingerprint") << h.stats().failure;
  EXPECT_EQ(MemoryTracker::instance().current(), before);
}

TEST(Checkpoint, WrongScalarTypeIsRejected) {
  Config cfg;
  cfg.auto_recover = false;
  auto h = load_factored(good_checkpoint(), complex_system(), cfg);
  EXPECT_FALSE(h.ok());
  EXPECT_EQ(h.stats().error.code, ErrorCode::kIo);
  EXPECT_EQ(h.stats().error.site, "ckpt.scalar") << h.stats().failure;
}

TEST(Checkpoint, CorruptLoadFallsBackToRefactorization) {
  auto bytes = slurp(good_checkpoint());
  ASSERT_GT(bytes.size(), 200u);
  const std::string path = ckpt_path("fallback");
  bytes[bytes.size() / 3] ^= 0x01;
  spit(path, bytes);
  Config cfg;  // auto_recover defaults to true
  cfg.eps = 1e-4;
  auto h = load_factored(path, real_system(), cfg);
  ASSERT_TRUE(h.ok()) << h.stats().failure;
  EXPECT_EQ(h.stats().checkpoint_source, "refactorized");
  EXPECT_EQ(h.stats().checkpoint_bytes, 0u);
  ASSERT_FALSE(h.stats().recoveries.empty());
  EXPECT_EQ(h.stats().recoveries.front().action, "checkpoint_fallback");
  // The fallback handle still solves the system correctly.
  const auto [xv, xs] = solve_block(real_system(), h, 1);
  la::Vector<double> v(real_system().nv()), s(real_system().ns());
  for (index_t i = 0; i < real_system().nv(); ++i) v[i] = xv(i, 0);
  for (index_t i = 0; i < real_system().ns(); ++i) s[i] = xs(i, 0);
  EXPECT_LT(real_system().relative_error(v, s), 1e-3);
  std::remove(path.c_str());
}

TEST(Checkpoint, InjectedSaveFailuresLeaveDetectablyTornFiles) {
  Config cfg;
  cfg.strategy = Strategy::kMultiSolve;
  cfg.eps = 1e-4;
  cfg.n_c = 64;
  for (const char* fp : {"ckpt.write=hit:20", "ckpt.torn=once"}) {
    Config armed = cfg;
    armed.failpoints = fp;
    auto h = factorize_coupled(real_system(), armed);
    ASSERT_TRUE(h.ok()) << h.stats().failure;
    const std::string path = ckpt_path("injected");
    SolveError err;
    EXPECT_EQ(h.save(path, &err), 0u) << fp;
    EXPECT_EQ(err.code, ErrorCode::kIo) << fp;
    // Whatever the crash left behind must never load as a valid
    // checkpoint: either the file is unreadable or it is rejected torn.
    Config noreco;
    noreco.auto_recover = false;
    auto torn = load_factored(path, real_system(), noreco);
    EXPECT_FALSE(torn.ok()) << fp;
    EXPECT_EQ(torn.stats().error.code, ErrorCode::kIo) << fp;
    std::remove(path.c_str());
  }
}

TEST(Checkpoint, FsyncFailureReportsErrorButNeverAWrongAnswer) {
  // An injected fsync failure strikes *after* every byte is flushed, so
  // the leftover file may be complete. save() must still report the
  // failure (durability is not guaranteed); if the leftover does load,
  // every CRC was verified and the answer is exactly the saved one.
  Config cfg;
  cfg.strategy = Strategy::kMultiSolve;
  cfg.eps = 1e-4;
  cfg.n_c = 64;
  cfg.failpoints = "ckpt.fsync=once";
  auto h = factorize_coupled(real_system(), cfg);
  ASSERT_TRUE(h.ok()) << h.stats().failure;
  const std::string path = ckpt_path("fsync");
  SolveError err;
  EXPECT_EQ(h.save(path, &err), 0u);
  EXPECT_EQ(err.code, ErrorCode::kIo);
  EXPECT_EQ(err.site, "ckpt.fsync");
  Config noreco;
  noreco.auto_recover = false;
  auto restored = load_factored(path, real_system(), noreco);
  if (restored.ok()) {
    EXPECT_EQ(restored.stats().checkpoint_source, "checkpoint");
    const auto [xv0, xs0] = solve_block(real_system(), h, 2);
    const auto [xv1, xs1] = solve_block(real_system(), restored, 2);
    EXPECT_TRUE(bitwise_equal(xv0, xv1));
    EXPECT_TRUE(bitwise_equal(xs0, xs1));
  } else {
    EXPECT_EQ(restored.stats().error.code, ErrorCode::kIo);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, InjectedCorruptionOnLoadRecoversThroughFallback) {
  Config cfg;
  cfg.strategy = Strategy::kMultiSolve;
  cfg.eps = 1e-4;
  cfg.n_c = 64;
  auto h = factorize_coupled(real_system(), cfg);
  ASSERT_TRUE(h.ok()) << h.stats().failure;
  const std::string path = ckpt_path("inject_load");
  ASSERT_GT(h.save(path), 0u);
  Config armed = cfg;
  armed.failpoints = "ckpt.corrupt=once";
  auto restored = load_factored(path, real_system(), armed);
  ASSERT_TRUE(restored.ok()) << restored.stats().failure;
  EXPECT_EQ(restored.stats().checkpoint_source, "refactorized");
  ASSERT_FALSE(restored.stats().recoveries.empty());
  EXPECT_EQ(restored.stats().recoveries.front().action,
            "checkpoint_fallback");
  std::remove(path.c_str());
}

TEST(CheckpointChaos, InjectedFailuresNeverProduceAWrongAnswer) {
  // CI's crash-injection matrix re-runs this test with each ckpt.* site
  // armed through CS_FAILPOINTS (environment failpoints re-arm at every
  // solver session). Whatever fires, the contract is fixed: save either
  // commits a checkpoint or reports a clean IoError; load either verifies
  // every checksum or degrades through checkpoint_fallback -- and the
  // final answer is always the right one.
  const auto& sys = real_system();
  Config cfg;
  cfg.strategy = Strategy::kMultiSolveCompressed;
  cfg.eps = 1e-4;
  cfg.n_c = 64;
  cfg.n_S = 160;
  auto h = factorize_coupled(sys, cfg);
  ASSERT_TRUE(h.ok()) << h.stats().failure;
  const std::string path = ckpt_path("chaos");
  SolveError err;
  const std::size_t bytes = h.save(path, &err);
  if (bytes == 0) EXPECT_EQ(err.code, ErrorCode::kIo) << err.detail;

  Config lcfg = cfg;  // auto_recover defaults to true
  auto restored = load_factored(path, sys, lcfg);
  ASSERT_TRUE(restored.ok()) << restored.stats().failure;
  EXPECT_TRUE(restored.stats().checkpoint_source == "checkpoint" ||
              restored.stats().checkpoint_source == "refactorized")
      << "unexpected checkpoint_source '"
      << restored.stats().checkpoint_source << "'";
  // A handle that came back verified must have consumed the committed
  // checkpoint; a fallback one must have recorded why.
  if (restored.stats().checkpoint_source == "checkpoint") {
    EXPECT_GT(restored.stats().checkpoint_bytes, 0u);
  } else {
    ASSERT_FALSE(restored.stats().recoveries.empty());
    EXPECT_EQ(restored.stats().recoveries.front().action,
              "checkpoint_fallback");
  }
  const auto [xv, xs] = solve_block(sys, restored, 2);
  la::Vector<double> v(sys.nv()), s(sys.ns());
  for (index_t i = 0; i < sys.nv(); ++i) v[i] = xv(i, 0);
  for (index_t i = 0; i < sys.ns(); ++i) s[i] = xs(i, 0);
  EXPECT_LT(sys.relative_error(v, s), 1e-3);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cs::coupled
