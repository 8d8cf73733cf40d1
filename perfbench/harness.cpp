/**
 * @file
 * perfbench harness — host time per simulated session under memory
 * pressure, driven through the public API of libariadne.
 *
 *     perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
 *
 * One run builds the workload's scenario from the seed and runs one
 * untimed reference round over the workload's whole population
 * (telemetry on: the simulated metrics and the consistency checks come
 * from it). It then repeats a round of the population's first users
 * until S seconds have passed, with telemetry off (--trace 0) or on
 * (--trace 1, the per-layer run). Every session of every timed round
 * must reproduce the reference round's session exactly; one that does
 * not counts as failed. The last line of stdout is the
 * result object; diagnostics go to stderr. See README.md.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "compress/chunked.hh"
#include "compress/registry.hh"
#include "driver/fleet_runner.hh"
#include "driver/workload_source.hh"
#include "mem/zpool.hh"
#include "sim/rng.hh"
#include "swap/page_compressor.hh"
#include "telemetry/telemetry.hh"
#include "workload/page_synth.hh"

using namespace ariadne;
using namespace ariadne::driver;

namespace
{

using HostClock = std::chrono::steady_clock;

/** Taken before any default-priority static initializer, so setup_s
 * covers the library's own static set-up too. */
const HostClock::time_point processStart
    __attribute__((init_priority(101))) = HostClock::now();

double
secondsSince(HostClock::time_point t)
{
    return std::chrono::duration<double>(HostClock::now() - t).count();
}

/** One benchmark workload: a synthetic user population whose every
 * user runs the same program (warm-up, then round-robin switches). */
struct Workload
{
    const char *name;
    const char *schemeLines; //!< `scheme = ...` plus its knobs
    const char *apps;        //!< empty = all ten standard apps
    std::size_t switches;
    const char *use;
    const char *gap;
    /** Users in the reference round, the population the simulated
     * metrics are taken over: >= 1,400 relaunches, and enough users
     * that the relaunch p99 is steady from seed to seed. */
    std::size_t population;
    /** Users in a timed round: the first @c timed of the population. */
    std::size_t timed;
    bool pressure;
    /** Shape of the harness's own codec/zpool inputs: pages per
     * compression unit, chunk size and zpool size (paper-scale MiB)
     * of the workload's dominant compression path. */
    std::size_t unitPages;
    std::size_t chunkBytes;
    std::size_t zpoolMb;
};

constexpr double scale = 0.0625;
/** Per-app footprint spread of the population (see README). */
constexpr const char *footprintSpread = "0.02";

const Workload workloads[] = {
    {"ariadne_daily",
     "scheme = ariadne\nscheme.config = EHL-1K-2K-16K\n", "", 120, "2s",
     "1s", 12, 12, true, 4, 16384, 3072},
    {"zswap_heavy", "scheme = zswap\nscheme.zpool_mb = 128\n", "", 120,
     "250ms", "0s", 48, 12, true, 1, 4096, 128},
    {"no_pressure", "scheme = ariadne\nscheme.config = EHL-1K-2K-16K\n",
     "YouTube, Twitter, Firefox, GoogleEarth, BangDream", 120, "2s",
     "500ms", 48, 48, false, 4, 16384, 3072},
};

std::string
scenarioText(const Workload &w, std::uint64_t seed, bool dram)
{
    std::ostringstream os;
    os << "name = " << w.name << "\n"
       << (dram ? "scheme = dram\n" : w.schemeLines)
       << "workload = synthetic\n"
       << "scale = " << scale << "\n"
       << "seed = " << seed << "\n"
       << "fleet = " << w.population << "\n";
    if (*w.apps)
        os << "apps = " << w.apps << "\n";
    os << "population_footprint_spread = " << footprintSpread << "\n"
       << "population_light_share = 0\n"
       << "population_heavy_share = 0\n"
       << "population_switches = " << w.switches << "\n"
       << "population_use = " << w.use << "\n"
       << "population_gap = " << w.gap << "\n";
    return os.str();
}

// --- Checks ------------------------------------------------------------

/** Collects failed global checks; any failure makes the run incorrect. */
struct Checks
{
    std::vector<std::string> failures;

    void
    require(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

bool
sameRelaunch(const RelaunchSample &a, const RelaunchSample &b)
{
    return a.uid == b.uid && a.fullScaleMs == b.fullScaleMs &&
           a.stats.totalNs == b.stats.totalNs &&
           a.stats.pagesTouched == b.stats.pagesTouched &&
           a.stats.majorFaults == b.stats.majorFaults &&
           a.stats.stagedHits == b.stats.stagedHits &&
           a.stats.flashFaults == b.stats.flashFaults &&
           a.stats.lostRecreated == b.stats.lostRecreated;
}

bool
sameComp(const CompStats &a, const CompStats &b)
{
    return a.compNs == b.compNs && a.decompNs == b.decompNs &&
           a.inBytes == b.inBytes && a.outBytes == b.outBytes &&
           a.decompBytes == b.decompBytes && a.compOps == b.compOps &&
           a.decompOps == b.decompOps;
}

bool
sameSession(const SessionResult &a, const SessionResult &b)
{
    if (a.index != b.index || a.seed != b.seed ||
        a.relaunches.size() != b.relaunches.size())
        return false;
    for (std::size_t i = 0; i < a.relaunches.size(); ++i) {
        if (!sameRelaunch(a.relaunches[i], b.relaunches[i]))
            return false;
    }
    return a.compCpuNs == b.compCpuNs && a.decompCpuNs == b.decompCpuNs &&
           a.kswapdCpuNs == b.kswapdCpuNs &&
           a.grandCpuNs == b.grandCpuNs && a.energyJ == b.energyJ &&
           a.simulatedNs == b.simulatedNs && sameComp(a.comp, b.comp) &&
           a.stagedHits == b.stagedHits &&
           a.majorFaults == b.majorFaults &&
           a.flashFaults == b.flashFaults &&
           a.lostPages == b.lostPages &&
           a.directReclaims == b.directReclaims;
}

bool
sameSummary(const MetricSummary &a, const MetricSummary &b)
{
    return a.samples == b.samples && a.mean == b.mean && a.min == b.min &&
           a.max == b.max && a.p50 == b.p50 && a.p90 == b.p90 &&
           a.p99 == b.p99;
}

/** Checks of the reference round against the DRAM (no-swap) run of
 * the same population: DRAM is the lower bound of every relaunch
 * quantile, and without pressure the two must agree exactly. */
void
checkAgainstDram(const Workload &w, const FleetResult &ref,
                 const FleetResult &dram, Checks &checks)
{
    const MetricSummary &r = ref.relaunchMs;
    const MetricSummary &d = dram.relaunchMs;
    checks.require(r.samples == d.samples,
                   "relaunch sample count differs from the DRAM run");
    if (w.pressure) {
        checks.require(r.min >= d.min && r.p50 >= d.p50 &&
                           r.p90 >= d.p90 && r.p99 >= d.p99,
                       "a relaunch quantile is below the DRAM run's");
        return;
    }
    checks.require(
        sameSummary(r, d) &&
            sameSummary(ref.compDecompCpuMs, dram.compDecompCpuMs) &&
            sameSummary(ref.kswapdCpuMs, dram.kswapdCpuMs) &&
            sameSummary(ref.energyJ, dram.energyJ) &&
            sameSummary(ref.compRatio, dram.compRatio) &&
            ref.totalMajorFaults == dram.totalMajorFaults &&
            ref.totalFlashFaults == dram.totalFlashFaults &&
            ref.totalLostPages == dram.totalLostPages,
        "no-pressure simulated metrics differ from the DRAM run");
}

/** Cross-layer counter identities of the reference round. */
void
checkTelemetry(const Workload &w, const FleetResult &ref,
               const telemetry::Registry::Snapshot &snap, Checks &checks)
{
    std::uint64_t faults = snap.counter("sys.major_fault");
    checks.require(ref.totalMajorFaults <= faults,
                   "report totalMajorFaults exceeds sys.major_fault");
    if (!w.pressure) {
        checks.require(faults == 0 &&
                           snap.duration("compressor.compress.lzo").count ==
                               0,
                       "no_pressure faulted or compressed");
        return;
    }
    if (std::strcmp(w.name, "zswap_heavy") != 0)
        return;
    std::uint64_t zpoolIn = snap.counter("zram.swapin_zpool");
    std::uint64_t flashIn = snap.counter("zram.swapin_flash");
    std::uint64_t out = snap.counter("zram.compress_out");
    std::uint64_t wb = snap.counter("zram.writeback");
    std::uint64_t dropped = snap.counter("zram.dropped");
    checks.require(faults == zpoolIn + flashIn,
                   "sys.major_fault != zram.swapin_zpool + swapin_flash");
    checks.require(out >= zpoolIn + wb + dropped,
                   "zram.compress_out < swapin_zpool + writeback + "
                   "dropped");
    checks.require(wb >= flashIn, "zram.writeback < zram.swapin_flash");
    checks.require(wb > 0 && flashIn > 0 && out > 0,
                   "zswap_heavy had no writeback, flash swap-in or "
                   "compression");
}

// --- Harness-side inputs (H metrics and the codec round trip) ----------

/** Compression units shaped like the workload's dominant path, drawn
 * from the seed over the session-0 user's apps. */
struct UnitInputs
{
    std::vector<std::vector<PageRef>> units;
    std::vector<std::vector<std::uint8_t>> bytes; //!< materialized
    std::vector<std::size_t> frameSizes;          //!< direct codec
};

constexpr std::size_t harnessUnits = 256;

UnitInputs
makeUnits(const Workload &w, const std::vector<AppProfile> &apps,
          const PageSynthesizer &synth, std::uint64_t seed)
{
    UnitInputs in;
    Rng rng(seed ^ 0x70657266ULL);
    std::size_t count = harnessUnits * 4 / w.unitPages;
    for (std::size_t u = 0; u < count; ++u) {
        const AppProfile &app = apps[rng.below(apps.size())];
        std::size_t pages = std::max<std::size_t>(
            w.unitPages,
            static_cast<std::size_t>(static_cast<double>(app.anonBytes5min) *
                                     scale) /
                pageSize);
        Pfn first = static_cast<Pfn>(rng.below(pages - w.unitPages + 1));
        std::vector<PageRef> unit;
        std::vector<std::uint8_t> buf(w.unitPages * pageSize);
        for (std::size_t p = 0; p < w.unitPages; ++p) {
            PageRef ref{PageKey{app.uid, static_cast<Pfn>(first + p)},
                        static_cast<std::uint32_t>(rng.below(4))};
            synth.materialize(ref.key, ref.version,
                              {buf.data() + p * pageSize, pageSize});
            unit.push_back(ref);
        }
        in.units.push_back(std::move(unit));
        in.bytes.push_back(std::move(buf));
    }
    return in;
}

/** Every unit round-trips through the codec, and PageCompressor
 * reports the size the codec produces when called directly. */
void
checkCodec(const Workload &w, const PageSynthesizer &synth,
           const Codec &codec, UnitInputs &in, Checks &checks)
{
    PageCompressor pc(synth);
    std::vector<std::uint8_t> back;
    bool roundTrip = true;
    bool sameSize = true;
    for (std::size_t u = 0; u < in.units.size(); ++u) {
        const std::vector<std::uint8_t> &src = in.bytes[u];
        std::vector<std::uint8_t> frame = ChunkedFrame::compress(
            codec, {src.data(), src.size()}, w.chunkBytes);
        back.assign(src.size(), 0);
        std::size_t n = ChunkedFrame::decompress(
            codec, {frame.data(), frame.size()},
            {back.data(), back.size()});
        roundTrip = roundTrip && n == src.size() && back == src;
        std::size_t reported =
            w.unitPages == 1
                ? pc.compressedSizeOne(in.units[u][0], codec, w.chunkBytes)
                : pc.compressedSizeMany(in.units[u], codec, w.chunkBytes);
        sameSize = sameSize && reported == frame.size();
        in.frameSizes.push_back(frame.size());
    }
    checks.require(roundTrip, "a harness unit did not round-trip");
    checks.require(sameSize,
                   "PageCompressor size differs from the direct codec");
}

/** Repeat @p pass until @p min_s seconds have passed; returns passes
 * per second. */
double
passesPerSecond(double min_s, const std::function<void()> &pass)
{
    std::size_t passes = 0;
    HostClock::time_point t0 = HostClock::now();
    double elapsed = 0.0;
    do {
        pass();
        ++passes;
        elapsed = secondsSince(t0);
    } while (elapsed < min_s);
    return static_cast<double>(passes) / elapsed;
}

constexpr double harnessSeconds = 0.5;

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** The (H) per-layer metrics: the harness timing public calls. */
std::vector<Metric>
harnessRates(const Workload &w, const PageSynthesizer &synth,
             const Codec &codec, const UnitInputs &in)
{
    const double pagesPerPass =
        static_cast<double>(in.units.size() * w.unitPages);
    std::vector<std::uint8_t> page(pageSize);
    double synthRate = passesPerSecond(harnessSeconds, [&] {
        for (const auto &unit : in.units)
            for (const PageRef &ref : unit)
                synth.materialize(ref.key, ref.version,
                                  {page.data(), page.size()});
    });

    std::unique_ptr<Codec::BatchState> state = codec.makeBatchState();
    std::vector<std::uint8_t> out, scratch;
    std::size_t sink = 0;
    double codecRate = passesPerSecond(harnessSeconds, [&] {
        for (const auto &src : in.bytes)
            sink += ChunkedFrame::compressInto(
                codec, {src.data(), src.size()}, w.chunkBytes, state.get(),
                out, scratch);
    });

    // A fresh compressor per pass: its identity cache starts cold, as
    // for pages a session evicts for the first time.
    std::vector<PageRef> pages;
    for (const auto &unit : in.units)
        pages.insert(pages.end(), unit.begin(), unit.end());
    std::vector<std::size_t> sizes;
    double sizeRate = passesPerSecond(harnessSeconds, [&] {
        PageCompressor pc(synth);
        if (w.unitPages == 1) {
            pc.compressedSizeEach(pages, codec, w.chunkBytes, sizes);
            sink += sizes.back();
        } else {
            for (const auto &unit : in.units)
                sink += pc.compressedSizeMany(unit, codec, w.chunkBytes);
        }
    });

    // FIFO insert/erase at the workload's zpool size and object sizes
    // (erasing the oldest object is what writeback does). A pass is a
    // fixed number of inserts plus the erases they force.
    Zpool pool(static_cast<std::size_t>(
        static_cast<double>(w.zpoolMb) * 1024.0 * 1024.0 * scale));
    std::deque<ZObjectId> fifo;
    std::size_t ops = 0, passes = 0, next = 0;
    double zpoolPassRate = passesPerSecond(harnessSeconds, [&] {
        for (std::size_t i = 0; i < 4096; ++i) {
            std::size_t csize = in.frameSizes[next++ % in.frameSizes.size()];
            while (!pool.canFit(csize)) {
                pool.erase(fifo.front());
                fifo.pop_front();
                ++ops;
            }
            fifo.push_back(pool.insert(csize, next));
            ++ops;
        }
        ++passes;
    });

    if (sink == 0)
        std::cerr << "perfbench: empty codec output\n";
    const double inBytes = pagesPerPass * static_cast<double>(pageSize);
    return {
        {"synth.pages_per_s", synthRate * pagesPerPass, "pages/s"},
        {"codec.lzo.compress_mb_s", codecRate * inBytes / 1e6, "MB/s"},
        {"compressor.size_pages_per_s", sizeRate * pagesPerPass,
         "pages/s"},
        {"zpool.ops_per_s",
         zpoolPassRate * static_cast<double>(ops) /
             static_cast<double>(passes),
         "ops/s"},
    };
}

// --- Output --------------------------------------------------------------

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

/** This process's peak resident set (VmHWM) in MiB, or -1 when it
 * cannot be read. Not getrusage(): its ru_maxrss keeps the high-water
 * mark of the address space replaced by exec, i.e. of the forked
 * launcher, which exceeds the harness's own peak on small workloads. */
double
peakRssMbSoFar()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return -1.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Per-layer metrics of the traced rounds, per session. */
std::vector<Metric>
layerMetrics(const telemetry::Registry::Snapshot &s, double sessions,
             const FleetResult &ref)
{
    auto perSession = [&](const char *counter) {
        return static_cast<double>(s.counter(counter)) / sessions;
    };
    auto msPerSession = [&](const char *duration) {
        return static_cast<double>(s.duration(duration).totalNs) / 1e6 /
               sessions;
    };
    double compressNs = 0, compressCalls = 0;
    for (const auto &d : s.durations) {
        if (d.name.rfind("compressor.compress.", 0) == 0) {
            compressNs += static_cast<double>(d.totalNs);
            compressCalls += static_cast<double>(d.count);
        }
    }
    double hit = perSession("compressor.cache_hit");
    double miss = perSession("compressor.cache_miss");
    double memoHit = perSession("compressor.memo.hit");
    double memoMiss = perSession("compressor.memo.miss");
    return {
        {"driver.session_ms", msPerSession("fleet.session"), "ms"},
        {"sys.launch_ms", msPerSession("sys.launch"), "ms"},
        {"sys.relaunch_ms", msPerSession("sys.relaunch"), "ms"},
        {"sys.execute_ms", msPerSession("sys.execute"), "ms"},
        {"sys.touches", perSession("sys.touch"), "count"},
        {"sys.page_allocs", perSession("sys.page_alloc"), "count"},
        {"sys.major_faults", perSession("sys.major_fault"), "count"},
        {"kswapd.run_ms", msPerSession("kswapd.run"), "ms"},
        {"kswapd.wakeups", perSession("kswapd.wakeup"), "count"},
        {"kswapd.reclaimed_pages", perSession("kswapd.reclaimed_pages"),
         "count"},
        {"compressor.compress_ms", compressNs / 1e6 / sessions, "ms"},
        {"compressor.compress_calls", compressCalls / sessions, "count"},
        {"compressor.cache_hit_ratio", ratio(hit, hit + miss), "ratio"},
        {"compressor.memo_hit_ratio", ratio(memoHit, memoHit + memoMiss),
         "ratio"},
        {"zram.swapin_ms", msPerSession("zram.swapin"), "ms"},
        {"zram.compress_out", perSession("zram.compress_out"), "count"},
        {"zram.writeback", perSession("zram.writeback"), "count"},
        {"zram.swapin_flash", perSession("zram.swapin_flash"), "count"},
        {"hotness.decay_ms", msPerSession("hotness.decay"), "ms"},
        {"hotness.decay_pages", perSession("hotness.decay_pages"),
         "count"},
        {"predecomp.staged_hit_ratio",
         ratio(static_cast<double>(ref.totalStagedHits),
               static_cast<double>(ref.totalMajorFaults)),
         "ratio"},
        {"sim.comp_cpu_ms", ref.compDecompCpuMs.p50, "ms"},
        {"sim.compression_ratio", ref.compRatio.p50, "ratio"},
    };
}

int
usageError(const std::string &msg)
{
    std::cerr << "perfbench_harness: " << msg
              << "\nusage: perfbench_harness --workload NAME --seed N "
                 "--seconds S --trace 0|1\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        std::string value = argv[i + 1];
        try {
            if (flag == "--workload")
                name = value;
            else if (flag == "--seed")
                seed = std::stoull(value);
            else if (flag == "--seconds")
                seconds = std::stod(value);
            else if (flag == "--trace")
                trace = std::stoi(value);
            else
                return usageError("unknown flag " + flag);
        } catch (const std::exception &) {
            return usageError("bad value for " + flag);
        }
    }
    if (argc % 2 != 1 || seconds <= 0 || (trace != 0 && trace != 1))
        return usageError("missing or invalid arguments");
    const Workload *wp = nullptr;
    for (const Workload &w : workloads)
        if (name == w.name)
            wp = &w;
    if (!wp)
        return usageError("unknown workload '" + name + "'");
    const Workload &w = *wp;

    FleetRunner runner(ScenarioSpec::parseString(scenarioText(w, seed, false)));
    const std::size_t n = w.population;
    const std::size_t k = w.timed;
    double setupS = secondsSince(processStart);

    // Reference round (untimed warm-up): telemetry on for the checks.
    telemetry::Registry &registry = telemetry::Registry::global();
    telemetry::setEnabled(true);
    registry.reset();
    HostClock::time_point refStart = HostClock::now();
    FleetResult ref = runner.run(n, 1, true);
    double refS = secondsSince(refStart);
    // Peak RSS of one fleet run of the population: later rounds in the
    // same process reuse freed blocks, and whether the heap then grows
    // again depends on fragmentation, not on the program's needs.
    const double peakRssMb = peakRssMbSoFar();
    telemetry::Registry::Snapshot refSnap = registry.snapshot();
    telemetry::setEnabled(trace == 1);
    registry.reset();

    // Timed rounds: the population's first k users again and again,
    // whole rounds only.
    std::vector<double> roundMs;
    std::size_t attempted = 0, failed = 0;
    HostClock::time_point timedStart = HostClock::now();
    do {
        HostClock::time_point t0 = HostClock::now();
        FleetResult r = runner.run(k, 1, true);
        roundMs.push_back(secondsSince(t0) * 1e3);
        for (std::size_t i = 0; i < k; ++i) {
            ++attempted;
            if (i >= r.sessions.size() ||
                !sameSession(r.sessions[i], ref.sessions[i]) ||
                r.sessions[i].relaunches.size() != w.switches)
                ++failed;
        }
    } while (secondsSince(timedStart) < seconds);
    telemetry::Registry::Snapshot traced = registry.snapshot();
    telemetry::setEnabled(false);
    double timedS = secondsSince(timedStart);
    HostClock::time_point checksStart = HostClock::now();
    Checks checks;
    checks.require(peakRssMb > 0, "could not read VmHWM");
    checks.require(ref.totalRelaunches == n * w.switches,
                   "relaunch count != sessions x switches");
    checkTelemetry(w, ref, refSnap, checks);
    FleetRunner dram(ScenarioSpec::parseString(scenarioText(w, seed, true)));
    checkAgainstDram(w, ref, dram.run(n, 1, false), checks);
    for (std::size_t i : {std::size_t{0}, n - 1})
        checks.require(sameSession(runner.runSession(i), ref.sessions[i]),
                       "session " + std::to_string(i) +
                           " differs when run alone");

    std::vector<AppProfile> apps = runner.workload().sessionProfiles(0);
    PageSynthesizer synth(apps);
    std::unique_ptr<Codec> lzo = makeCodec(CodecKind::Lzo);
    UnitInputs units = makeUnits(w, apps, synth, seed);
    checkCodec(w, synth, *lzo, units, checks);

    std::cerr << "perfbench: phases: setup " << setupS << " s, reference "
              << refS << " s, timed "
              << timedS << " s, checks " << secondsSince(checksStart)
              << " s\n";
    for (const std::string &f : checks.failures)
        std::cerr << "perfbench: check failed: " << f << "\n";
    // The fastest round: other tenants of the host only ever slow a
    // round down, and every round does identical work (see README).
    double sessionMs = *std::min_element(roundMs.begin(), roundMs.end()) /
                       static_cast<double>(k);
    std::cerr << "perfbench: " << w.name << " seed " << seed << ": "
              << roundMs.size() << " rounds of " << k << " sessions, "
              << sessionMs << " ms/session, " << failed << " failed\n";
    std::cerr << "perfbench: round ms:";
    for (double ms : roundMs)
        std::cerr << " " << ms;
    std::cerr << "\n";

    std::vector<Metric> metrics;
    if (trace == 1) {
        metrics = layerMetrics(
            traced, static_cast<double>(attempted), ref);
        for (Metric &m : harnessRates(w, synth, *lzo, units))
            metrics.push_back(std::move(m));
    } else {
        metrics = {
            {"session_ms", sessionMs, "ms"},
            {"peak_rss_mb", peakRssMb, "MB"},
            {"setup_s", setupS, "s"},
            {"sim_relaunch_p50_ms", ref.relaunchMs.p50, "ms"},
            {"sim_relaunch_p99_ms", ref.relaunchMs.p99, "ms"},
            {"sim_kswapd_cpu_ms", ref.kswapdCpuMs.p50, "ms"},
        };
    }
    printResult(checks.failures.empty(), attempted, failed, metrics);
    return 0;
}
