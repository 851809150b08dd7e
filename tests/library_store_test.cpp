// Out-of-core ligand library tests: the LigandStore shard format (round
// trip, dedup, corruption resilience), the LigandSource backends (bitwise
// featurization and campaign-fingerprint equality between InMemorySource
// and MmapSource), the external-memory streaming top-k determinism
// contract, and the enrichment-denominator regression.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "impeccable/chem/ligand_source.hpp"
#include "impeccable/chem/smiles.hpp"
#include "impeccable/chem/store.hpp"
#include "impeccable/core/campaign.hpp"
#include "impeccable/core/checkpoint.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/ml/streaming.hpp"
#include "impeccable/ml/surrogate.hpp"

#include "test_support.hpp"

namespace chem = impeccable::chem;
namespace common = impeccable::common;
namespace core = impeccable::core;
namespace fe = impeccable::fe;
namespace ml = impeccable::ml;

namespace {

/// "LIG-<i>" and a 2..6-carbon chain: the round-trip test's records.
std::string lig_id(std::size_t i) {
  std::string id = "LIG-";
  id += std::to_string(i);
  return id;
}

std::string lig_smiles(std::size_t i) {
  std::string smiles = "C";
  smiles.append(i % 5 + 1, 'C');
  return smiles;
}

/// A slim two-iteration campaign (mirrors core_test's tiny_science).
core::ScienceConfig slim_science() {
  core::ScienceConfig sci;
  sci.library_size = 60;
  sci.iterations = 2;
  sci.bootstrap_docks = 12;
  sci.dock_top_fraction = 0.2;
  sci.cg_compounds = 3;
  sci.top_binders = 2;
  sci.outliers_per_binder = 2;
  sci.dock.runs = 1;
  sci.dock.lga.population = 16;
  sci.dock.lga.generations = 6;
  sci.esmacs_cg = fe::cg_config(0.3);
  sci.esmacs_cg.replicas = 3;
  sci.esmacs_fg = fe::fg_config(0.1);
  sci.esmacs_fg.replicas = 4;
  sci.surrogate.epochs = 3;
  sci.aae.epochs = 3;
  return sci;
}

/// Same shape and the same bytes, so -0.0f vs 0.0f or NaN payloads count.
bool bitwise_equal(const chem::Image& a, const chem::Image& b) {
  return a.channels == b.channels && a.height == b.height &&
         a.width == b.width && a.data.size() == b.data.size() &&
         std::memcmp(a.data.data(), b.data.data(),
                     a.data.size() * sizeof(float)) == 0;
}

/// Shard file bytes, for tests that craft a damaged header or index.
std::vector<char> read_file(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_file(const std::filesystem::path& path,
                const std::vector<char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Little-endian u64 at `at`, the shard format's integer encoding.
void put_u64(std::vector<char>& bytes, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    bytes[at + static_cast<std::size_t>(i)] = static_cast<char>(v >> (8 * i));
}

std::uint64_t get_u64(const std::vector<char>& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i)
    v |= std::uint64_t{static_cast<unsigned char>(bytes[at + i])} << (8 * i);
  return v;
}

/// One single-shard store of `n` records in `dir`.
void write_small_store(const std::filesystem::path& dir, std::size_t n) {
  std::filesystem::remove_all(dir);
  chem::LigandStoreWriter w(dir.string());
  for (std::size_t i = 0; i < n; ++i) w.append(lig_id(i), lig_smiles(i));
  w.finish();
}

core::ExecConfig slim_exec() {
  core::ExecConfig exec;
  exec.seed = 23;
  exec.featurize_window = 17;  // deliberately not a divisor of 60
  return exec;
}

}  // namespace

// ---------------------------------------------------------------------------
// Store format

TEST(LigandStore, WriterReaderRoundTrip) {
  const auto dir = tmp_path("imp_store_roundtrip");
  std::filesystem::remove_all(dir);
  {
    chem::StoreWriterOptions opts;
    opts.records_per_shard = 7;  // force multiple shards
    chem::LigandStoreWriter w(dir.string(), opts);
    for (std::size_t i = 0; i < 20; ++i) w.append(lig_id(i), lig_smiles(i));
    w.finish();
    EXPECT_EQ(w.stats().records, 20u);
  }
  auto store = chem::LigandStore::open(dir.string());
  ASSERT_EQ(store.size(), 20u);
  EXPECT_EQ(store.stats().shards_ok, 3u);  // 7 + 7 + 6
  EXPECT_EQ(store.stats().shards_skipped, 0u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(store.id(i), lig_id(i));
    EXPECT_EQ(store.smiles(i), lig_smiles(i));
  }
  // (shard, offset) addressing round-trips through locate/index_of.
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_EQ(store.index_of(store.locate(i)), i);
  EXPECT_EQ(store.index_of({99, 0}), store.size());  // unknown shard
  std::filesystem::remove_all(dir);
}

TEST(LigandStore, EmptyDirectoryYieldsEmptyStore) {
  const auto dir = tmp_path("imp_store_empty");
  std::filesystem::remove_all(dir);
  auto store = chem::LigandStore::open(dir.string());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.stats().shards_ok, 0u);
}

TEST(LigandStore, WriterDedupDropsDuplicateDigests) {
  const auto dir = tmp_path("imp_store_dedup");
  std::filesystem::remove_all(dir);
  chem::StoreWriterOptions opts;
  opts.dedup = true;
  chem::LigandStoreWriter w(dir.string(), opts);
  EXPECT_TRUE(w.append("A", "CCO"));
  EXPECT_TRUE(w.append("B", "CCCN"));
  EXPECT_FALSE(w.append("C", "CCO"));  // same canonical digest
  EXPECT_TRUE(w.append("D", "CCCCO"));
  w.finish();
  EXPECT_EQ(w.stats().records, 3u);
  EXPECT_EQ(w.stats().duplicates_dropped, 1u);
  auto store = chem::LigandStore::open(dir.string());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.id(2), "D");
  std::filesystem::remove_all(dir);
}

// Corruption resilience: damaged shards are skipped and counted, never
// fatal, and intact shards keep serving.
TEST(LigandStore, CorruptShardsAreSkippedAndCounted) {
  const auto dir = tmp_path("imp_store_corrupt");
  std::filesystem::remove_all(dir);
  {
    chem::StoreWriterOptions opts;
    opts.records_per_shard = 5;
    chem::LigandStoreWriter w(dir.string(), opts);
    for (int i = 0; i < 20; ++i)
      w.append("LIG-" + std::to_string(i), "CCCC");
    w.finish();
  }

  // Truncated shard: chop the last shard mid-index.
  {
    const auto path = dir / "shard-00003.imls";
    const auto bytes = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, bytes - 9);
  }
  // Torn header: shard shorter than the fixed header.
  {
    std::ofstream f(dir / "shard-00001.imls",
                    std::ios::binary | std::ios::trunc);
    f << "torn";
  }
  // Bad checksum: flip one payload byte of an otherwise intact shard.
  {
    std::fstream f(dir / "shard-00002.imls",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(70);
    f.put('\xff');
  }

  auto store = chem::LigandStore::open(dir.string());
  EXPECT_EQ(store.stats().shards_ok, 1u);
  EXPECT_EQ(store.stats().shards_skipped, 3u);
  ASSERT_EQ(store.size(), 5u);  // shard 0 survived
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(store.id(i), "LIG-" + std::to_string(i));
  std::filesystem::remove_all(dir);
}

// The header sits outside the checksum: a payload size that wraps
// `header + payload_bytes` past 2^64 must not pass the structural check.
TEST(LigandStore, WrappedPayloadSizeIsSkipped) {
  const auto dir = tmp_path("imp_store_wrapped_header");
  write_small_store(dir, 4);
  const auto path = dir / "shard-00000.imls";
  auto bytes = read_file(path);
  put_u64(bytes, 24, std::numeric_limits<std::uint64_t>::max());
  write_file(path, bytes);

  auto store = chem::LigandStore::open(dir.string());
  EXPECT_EQ(store.stats().shards_ok, 0u);
  EXPECT_EQ(store.stats().shards_skipped, 1u);
  EXPECT_EQ(store.size(), 0u);
  std::filesystem::remove_all(dir);
}

// An index entry near 2^64 (checksum resealed, so the shard opens) must
// throw on access instead of wrapping back into the header bytes.
TEST(LigandStore, WrappingIndexEntryThrows) {
  const auto dir = tmp_path("imp_store_wrapped_index");
  write_small_store(dir, 4);
  const auto path = dir / "shard-00000.imls";
  auto bytes = read_file(path);
  put_u64(bytes, get_u64(bytes, 32),  // index entry 0
          std::numeric_limits<std::uint64_t>::max() - 1);
  put_u64(bytes, 48, chem::fnv1a64(bytes.data() + 64, bytes.size() - 64));
  write_file(path, bytes);

  auto store = chem::LigandStore::open(dir.string());
  ASSERT_EQ(store.stats().shards_ok, 1u);
  ASSERT_EQ(store.size(), 4u);
  EXPECT_THROW((void)store.id(0), std::runtime_error);
  EXPECT_EQ(store.id(1), lig_id(1));
  store.release(0, store.size());  // clamped to the shard; must not fault
  EXPECT_EQ(store.smiles(3), lig_smiles(3));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Sources

TEST(LigandSource, MmapMatchesInMemoryBitwise) {
  const auto dir = tmp_path("imp_source_equal");
  std::filesystem::remove_all(dir);
  const std::size_t n = 40;
  chem::SourceOptions sopts;
  sopts.protonate_ph = 7.4;  // exercise the prep step in both backends

  chem::spill_generated_library("EQL", n, 77, dir.string());
  const chem::MmapSource lazy(chem::LigandStore::open(dir.string()), sopts);
  const chem::InMemorySource eager(chem::generate_library("EQL", n, 77),
                                   sopts);

  ASSERT_EQ(lazy.size(), n);
  ASSERT_EQ(eager.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(lazy.id(i), eager.id(i));
    EXPECT_EQ(lazy.smiles(i), eager.smiles(i));
    const chem::Image a = lazy.image(i);
    const chem::Image b = eager.image(i);
    ASSERT_EQ(a.data.size(), b.data.size());
    // Bitwise: the identical featurization pipeline must produce identical
    // floats, not merely close ones.
    EXPECT_TRUE(std::equal(a.data.begin(), a.data.end(), b.data.begin()))
        << "depiction diverged at ligand " << i;
  }
  // Window + release path serves the same bytes as per-ligand access.
  std::vector<chem::Image> window;
  lazy.images(10, 25, window);
  lazy.release(10, 25);
  ASSERT_EQ(window.size(), 15u);
  for (std::size_t i = 0; i < window.size(); ++i) {
    const chem::Image b = eager.image(10 + i);
    EXPECT_TRUE(std::equal(window[i].data.begin(), window[i].data.end(),
                           b.data.begin()));
  }
  std::filesystem::remove_all(dir);
}

TEST(LigandSource, ImagesBitwiseAcrossComputePoolSizes) {
  const auto dir = tmp_path("imp_source_pools");
  std::filesystem::remove_all(dir);
  const std::size_t n = 48;
  chem::SourceOptions sopts;
  sopts.protonate_ph = 7.4;
  chem::spill_generated_library("POOL", n, 91, dir.string());
  const chem::MmapSource lazy(chem::LigandStore::open(dir.string()), sopts);
  const chem::CompoundLibrary library = chem::generate_library("POOL", n, 91);

  // Serial reference: no compute pool installed.
  const common::ComputePoolScope serial(nullptr);
  std::vector<chem::Image> ref;
  lazy.images(0, n, ref);
  ASSERT_EQ(ref.size(), n);
  std::vector<std::string> ref_smiles;
  for (std::size_t i = 0; i < n; ++i)
    ref_smiles.push_back(chem::write_smiles(lazy.molecule(i)));

  const auto expect_window = [&](const std::vector<chem::Image>& got,
                                 std::size_t begin, std::size_t end,
                                 const char* what, std::size_t threads) {
    ASSERT_EQ(got.size(), end - begin) << what << ", " << threads << " threads";
    for (std::size_t i = begin; i < end; ++i)
      EXPECT_TRUE(bitwise_equal(got[i - begin], ref[i]))
          << what << ", " << threads << " threads, ligand " << i;
  };

  for (const std::size_t threads : {1, 2, 8}) {
    common::ThreadPool pool(threads);
    const common::ComputePoolScope scope(&pool);

    std::vector<chem::Image> got;
    lazy.images(0, n, got);
    expect_window(got, 0, n, "mmap", threads);
    lazy.images(5, 29, got);  // a window that does not start at 0
    expect_window(got, 5, 29, "mmap window", threads);

    const chem::InMemorySource eager(library, sopts);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(bitwise_equal(eager.image(i), ref[i]))
          << "in-memory build, " << threads << " threads, ligand " << i;
      EXPECT_EQ(chem::write_smiles(eager.molecule(i)), ref_smiles[i])
          << threads << " threads, ligand " << i;
    }

    // Nested: the window is featurized from inside a job on the same pool,
    // as the ML1 stage and the streaming benchmark call it.
    std::vector<chem::Image> nested_lazy, nested_eager;
    pool.submit([&] {
          lazy.images(0, n, nested_lazy);
          eager.images(3, 40, nested_eager);
        })
        .get();
    expect_window(nested_lazy, 0, n, "nested mmap", threads);
    expect_window(nested_eager, 3, 40, "nested in-memory", threads);
  }
  std::filesystem::remove_all(dir);
}

TEST(LigandSource, MalformedSmilesThrowsFromLowestIndexUnderAnyPool) {
  chem::CompoundLibrary library = chem::generate_library("BAD", 40, 5);
  library.entries[29].smiles = "C1CC";  // unclosed ring
  library.entries[11].smiles = "CC(C";  // unclosed branch
  const auto parse_error = [](const std::string& smiles) {
    try {
      (void)chem::parse_smiles(smiles);
    } catch (const chem::SmilesError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string expected = parse_error(library.entries[11].smiles);
  ASSERT_FALSE(expected.empty());
  ASSERT_NE(expected, parse_error(library.entries[29].smiles))
      << "the two defects must be told apart by their messages";

  const auto build_error = [&library] {
    try {
      const chem::InMemorySource source(library);
    } catch (const chem::SmilesError& e) {
      return std::string(e.what());
    }
    return std::string("no SmilesError");
  };
  {
    const common::ComputePoolScope serial(nullptr);
    EXPECT_EQ(build_error(), expected);
  }
  for (const std::size_t threads : {2, 8}) {
    common::ThreadPool pool(threads);
    const common::ComputePoolScope scope(&pool);
    EXPECT_EQ(build_error(), expected) << threads << " threads";
    EXPECT_EQ(pool.submit(build_error).get(), expected)
        << "nested, " << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Streaming selection

TEST(StreamingTopK, MatchesFullSortWithDeterministicTies) {
  impeccable::common::Rng rng(404);
  std::vector<float> scores(5000);
  // Coarse quantization forces plenty of exact ties.
  for (auto& s : scores)
    s = static_cast<float>(rng.index(32)) / 32.0f;

  std::vector<ml::TopCandidate> all(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i)
    all[i] = {scores[i], i};
  std::sort(all.begin(), all.end(), ml::candidate_better);

  const std::size_t k = 137;
  ml::StreamingTopK topk(k);
  for (std::size_t i = 0; i < scores.size(); ++i) topk.offer(scores[i], i);
  const auto got = topk.take_sorted();
  ASSERT_EQ(got.size(), k);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(got[i].index, all[i].index);
    EXPECT_EQ(got[i].score, all[i].score);
  }

  // Partitioned accumulation + merge gives the exact same selection, no
  // matter how the stream was split.
  std::vector<std::vector<ml::TopCandidate>> parts;
  for (std::size_t lo = 0; lo < scores.size(); lo += 911) {
    ml::StreamingTopK part(k);
    for (std::size_t i = lo; i < std::min(scores.size(), lo + 911); ++i)
      part.offer(scores[i], i);
    parts.push_back(part.take_sorted());
  }
  const auto merged = ml::StreamingTopK::merge_sorted(std::move(parts), k);
  ASSERT_EQ(merged.size(), k);
  for (std::size_t i = 0; i < k; ++i)
    EXPECT_EQ(merged[i].index, got[i].index);
}

TEST(ScoreSpill, FileBackedMatchesInMemory) {
  const auto path = tmp_path("imp_spill_test.f32");
  std::filesystem::remove_all(path);
  const std::size_t n = 1000;
  auto mem = ml::ScoreSpill::in_memory(n);
  auto file = ml::ScoreSpill::file_backed(n, path.string());
  EXPECT_TRUE(file.file_backed_storage());

  impeccable::common::Rng rng(7);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform());
  // Windowed writes covering the range out of order.
  mem.write(500, v.data() + 500, 500);
  mem.write(0, v.data(), 500);
  file.write(500, v.data() + 500, 500);
  file.write(0, v.data(), 500);

  for (std::size_t i = 0; i < n; i += 97)
    EXPECT_EQ(mem.at(i), file.at(i));
  std::vector<float> a(n), b(n);
  mem.read(0, a.data(), n);
  file.read(0, b.data(), n);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, v);

  // select_top_k over either backend gives the same exact selection.
  const auto ta = ml::select_top_k(mem, 25, 64);
  const auto tb = ml::select_top_k(file, 25, 64);
  ASSERT_EQ(ta.size(), 25u);
  for (std::size_t i = 0; i < ta.size(); ++i)
    EXPECT_EQ(ta[i].index, tb[i].index);
  // The spill file is owned: destruction unlinks it (checked after scope).
}

TEST(ScoreSpill, RangeCheckDoesNotWrapAround) {
  const auto path = tmp_path("imp_spill_wrap.f32");
  std::filesystem::remove_all(path);
  auto mem = ml::ScoreSpill::in_memory(8);
  auto file = ml::ScoreSpill::file_backed(8, path.string());
  const float v[2] = {1.0f, 2.0f};
  float out[2] = {};
  constexpr std::size_t kHuge = std::numeric_limits<std::size_t>::max();
  for (ml::ScoreSpill* spill : {&mem, &file}) {
    // begin + n wraps to 1 here; the old check let it through.
    EXPECT_THROW(spill->write(kHuge, v, 2), std::out_of_range);
    EXPECT_THROW(spill->read(kHuge, out, 2), std::out_of_range);
    EXPECT_THROW(spill->write(2, v, kHuge), std::out_of_range);
    EXPECT_THROW(spill->read(7, out, 2), std::out_of_range);
    EXPECT_THROW(spill->write(9, v, 0), std::out_of_range);
    // In range, up to and including an empty range at the end.
    EXPECT_NO_THROW(spill->write(6, v, 2));
    EXPECT_NO_THROW(spill->read(8, out, 0));
    EXPECT_EQ(spill->at(7), 2.0f);
  }
}

TEST(ScoreSpill, FailedSizingLeavesNoFile) {
  // Cap this process's file size at zero: the spill file opens fine but
  // sizing it fails (EFBIG, as ENOSPC on a full disk). The error must not
  // pass silently, and the half-made file must not be left behind.
  const auto dir = tmp_path("imp_spill_sizing_failure");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = 0;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  EXPECT_THROW((void)ml::ScoreSpill::file_backed(1000,
                                                 (dir / "scores.f32").string()),
               std::runtime_error);
  EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(ScoreSpill, SelectTopKRejectsZeroChunk) {
  auto spill = ml::ScoreSpill::in_memory(16);
  // Used to loop forever: a zero-length buffer never advances the scan.
  EXPECT_THROW((void)ml::select_top_k(spill, 4, 0), std::invalid_argument);
}

TEST(ScoreStreaming, WindowSizeNeverChangesScores) {
  const std::size_t n = 30;
  chem::SourceOptions sopts;
  const chem::InMemorySource source(chem::generate_library("WND", n, 3), sopts);
  ml::SurrogateOptions mopts;
  mopts.epochs = 1;
  const ml::SurrogateModel model(mopts);

  auto spill_a = ml::ScoreSpill::in_memory(n);
  auto spill_b = ml::ScoreSpill::in_memory(n);
  ml::score_ligands(source, model, 0, n, 7, &spill_a);
  ml::score_ligands(source, model, 0, n, n, &spill_b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(spill_a.at(i), spill_b.at(i)) << "window-dependent score " << i;
    // Streaming scores are the model's own per-image predictions.
    EXPECT_EQ(spill_a.at(i), model.predict(source.image(i))) << i;
  }
}

// ---------------------------------------------------------------------------
// Campaign integration

TEST(LibraryBackend, ScienceFingerprintIdenticalAcrossBackends) {
  const auto dir = tmp_path("imp_backend_fp_store");
  std::filesystem::remove_all(dir);

  auto mmap_exec = slim_exec();
  mmap_exec.library_backend = core::ExecConfig::LibraryBackend::kMmapStore;
  mmap_exec.library_store_dir = dir.string();

  core::Campaign a(core::Target::make("3CL-like", 42, 40, 21), slim_science(),
                   slim_exec());
  const auto report_a = a.run();
  core::Campaign b(core::Target::make("3CL-like", 42, 40, 21), slim_science(),
                   mmap_exec);
  const auto report_b = b.run();

  // The tentpole guarantee: the out-of-core path is a pure execution
  // concern — byte-identical science.
  EXPECT_EQ(report_a.science_fingerprint(), report_b.science_fingerprint());
  std::filesystem::remove_all(dir);
}

TEST(LibraryBackend, StaleStoreRefreshKeepsForeignFiles) {
  // A user-supplied store directory holding a stale 3-record store next to
  // a file and a subdirectory the campaign does not own: regenerating the
  // store replaces its shards and nothing else.
  const auto dir = tmp_path("imp_backend_foreign_store");
  write_small_store(dir, 3);
  std::ofstream(dir / "keep.txt") << "user notes\n";
  std::filesystem::create_directories(dir / "sub");
  std::ofstream(dir / "sub" / "data.bin") << "user data\n";

  auto mmap_exec = slim_exec();
  mmap_exec.library_backend = core::ExecConfig::LibraryBackend::kMmapStore;
  mmap_exec.library_store_dir = dir.string();
  core::Campaign in_memory(core::Target::make("3CL-like", 42, 40, 21),
                           slim_science(), slim_exec());
  core::Campaign mmap(core::Target::make("3CL-like", 42, 40, 21),
                      slim_science(), mmap_exec);
  EXPECT_EQ(in_memory.run().science_fingerprint(),
            mmap.run().science_fingerprint());

  EXPECT_TRUE(std::filesystem::exists(dir / "keep.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir / "sub" / "data.bin"));
  EXPECT_EQ(chem::LigandStore::open(dir.string()).size(),
            slim_science().library_size);
  std::filesystem::remove_all(dir);
}

TEST(LibraryBackend, EnrichmentDenominatorIsLibrarySizeEveryIteration) {
  // Regression for the fg_esmacs fallback that substituted `docked` for an
  // unstamped library_screened: the denominator of effective ligands per
  // second is the full library on every iteration, warm-up included.
  auto sci = slim_science();
  sci.iterations = 2;
  core::Campaign c(core::Target::make("Den", 9, 30, 15), sci, slim_exec());
  const auto report = c.run();
  ASSERT_EQ(report.iterations.size(), 2u);
  for (const auto& it : report.iterations) {
    EXPECT_EQ(it.library_screened, sci.library_size);
    EXPECT_GT(it.docked, 0u);
    EXPECT_LT(it.docked, it.library_screened);
  }
}

TEST(LibraryBackend, CheckpointResumeThroughMmapStore) {
  const auto dir = tmp_path("imp_backend_resume_store");
  const auto ckpt = tmp_path("imp_backend_resume.csv");
  std::filesystem::remove_all(dir);
  std::filesystem::remove(ckpt);

  auto sci = slim_science();
  sci.iterations = 1;
  auto leg = slim_exec();
  leg.library_backend = core::ExecConfig::LibraryBackend::kMmapStore;
  leg.library_store_dir = dir.string();

  core::Campaign first(core::Target::make("RSM", 5, 30, 15), sci, leg);
  const auto rep1 = first.run();
  core::write_checkpoint(rep1, ckpt.string());
  std::size_t docked1 = 0;
  for (const auto& [id, rec] : rep1.compounds)
    if (rec.docked) ++docked1;
  ASSERT_GT(docked1, 0u);

  // Same seed -> identical bootstrap picks -> nothing re-docks; the
  // restored records came back through the id->ordinal map built in one
  // store scan.
  auto leg2 = leg;
  leg2.resume_checkpoint = ckpt.string();
  core::Campaign second(core::Target::make("RSM", 5, 30, 15), sci, leg2);
  const auto rep2 = second.run();
  EXPECT_EQ(rep2.iterations[0].docked, 0u);
  std::size_t restored = 0;
  for (const auto& [id, rec] : rep2.compounds)
    if (rec.docked) ++restored;
  EXPECT_EQ(restored, docked1);

  std::filesystem::remove(ckpt);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------- edge cases

TEST(MiscShards, RejectsZeroPerShard) {
  EXPECT_THROW(
      chem::LigandStoreWriter("/tmp/imp_zero", {.records_per_shard = 0}),
      std::invalid_argument);
}

TEST(MiscShards, EmptyShardListYieldsEmptyOutput) {
  // A store directory holding no shards scores nothing.
  const auto dir = std::filesystem::temp_directory_path() / "imp_no_shards";
  std::filesystem::remove_all(dir);
  const chem::MmapSource source(chem::LigandStore::open(dir.string()));
  const ml::SurrogateModel model;
  ml::StreamingTopK topk(5);
  EXPECT_EQ(ml::score_ligands(source, model, 0, 0, 8, nullptr, &topk), 0u);
  EXPECT_EQ(topk.size(), 0u);
}
