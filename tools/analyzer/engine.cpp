/**
 * @file
 * The rule-pass engine: file collection, pack dispatch, inline
 * suppressions, baseline handling, and text/JSON rendering.
 */

#include "analyzer/analyzer.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace fs = std::filesystem;

namespace satori_analyzer {

unsigned
parsePackList(const std::string& list)
{
    unsigned packs = 0;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item == "det" || item == "determinism")
            packs |= kPackDeterminism;
        else if (item == "num" || item == "numeric")
            packs |= kPackNumeric;
        else if (item == "api")
            packs |= kPackApi;
        else if (item == "header" || item == "hdr")
            packs |= kPackHeader;
        else if (item == "conc" || item == "concurrency")
            packs |= kPackConcurrency;
        else if (item == "persist")
            packs |= kPackPersist;
        else if (item == "arch")
            packs |= kPackArch;
        else if (item == "flow")
            packs |= kPackFlow;
        else if (item == "all")
            packs |= kPackAll;
        else
            return 0;
    }
    return packs;
}

namespace {

/** Trimmed copy of @p s (the fingerprint normalization). */
std::string
trimmed(const std::string& s)
{
    std::size_t b = s.find_first_not_of(" \t\r\n");
    std::size_t e = s.find_last_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    return s.substr(b, e - b + 1);
}

/** Rules allowed by `satori-analyzer: allow(a, b)` in @p raw, or "". */
std::vector<std::string>
parseAllowedRules(const std::string& raw)
{
    std::vector<std::string> rules;
    const std::size_t tag = raw.find("satori-analyzer:");
    if (tag == std::string::npos)
        return rules;
    const std::size_t allow = raw.find("allow", tag);
    if (allow == std::string::npos)
        return rules;
    const std::size_t open = raw.find('(', allow);
    const std::size_t close =
        open == std::string::npos ? std::string::npos
                                  : raw.find(')', open);
    if (close == std::string::npos)
        return rules;
    std::stringstream ss(raw.substr(open + 1, close - open - 1));
    std::string item;
    while (std::getline(ss, item, ','))
        rules.push_back(trimmed(item));
    return rules;
}

} // namespace

void
applySuppressions(const SourceFile& file, std::vector<Finding>& findings)
{
    for (Finding& f : findings) {
        if (f.file != file.display || f.line <= 0 ||
            static_cast<std::size_t>(f.line) > file.lines.size())
            continue;
        for (int line : {f.line, f.line - 1}) {
            if (line <= 0)
                continue;
            const std::vector<std::string> allowed = parseAllowedRules(
                file.lines[static_cast<std::size_t>(line) - 1].raw);
            for (const std::string& rule : allowed)
                if (rule == f.rule || rule == "all")
                    f.suppressed = true;
        }
    }
}

bool
loadBaseline(const fs::path& path, std::vector<BaselineEntry>& entries,
             std::string& error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open baseline file " + path.string();
        return false;
    }
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::string t = trimmed(line);
        if (t.empty() || t[0] == '#')
            continue;
        const std::size_t p1 = t.find('|');
        const std::size_t p2 =
            p1 == std::string::npos ? std::string::npos
                                    : t.find('|', p1 + 1);
        if (p2 == std::string::npos) {
            error = path.string() + ":" + std::to_string(lineno) +
                    ": expected `rule | path-suffix | fingerprint`";
            return false;
        }
        BaselineEntry entry;
        entry.rule = trimmed(t.substr(0, p1));
        entry.path_suffix = trimmed(t.substr(p1 + 1, p2 - p1 - 1));
        entry.fingerprint = trimmed(t.substr(p2 + 1));
        entry.source_line = lineno;
        if (entry.rule.empty() || entry.path_suffix.empty()) {
            error = path.string() + ":" + std::to_string(lineno) +
                    ": empty rule or path suffix";
            return false;
        }
        entries.push_back(std::move(entry));
    }
    return true;
}

void
applyBaseline(std::vector<BaselineEntry>& entries,
              std::vector<Finding>& findings)
{
    for (BaselineEntry& entry : entries) {
        for (Finding& f : findings) {
            if (f.baselined || f.suppressed || f.rule != entry.rule)
                continue;
            if (f.file.size() < entry.path_suffix.size() ||
                f.file.compare(f.file.size() - entry.path_suffix.size(),
                               entry.path_suffix.size(),
                               entry.path_suffix) != 0)
                continue;
            if (f.fingerprint != entry.fingerprint)
                continue;
            f.baselined = true;
            entry.used = true;
            break;
        }
    }
}

namespace {

void
sortFindings(std::vector<Finding>& findings)
{
    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
}

void
fillFingerprints(const SourceFile& file, std::vector<Finding>& findings)
{
    for (Finding& f : findings) {
        if (f.file == file.display && f.line >= 1 &&
            static_cast<std::size_t>(f.line) <= file.lines.size())
            f.fingerprint = trimmed(
                file.lines[static_cast<std::size_t>(f.line) - 1].raw);
    }
}

/** Per-file packs over an already-loaded source. */
std::vector<Finding>
analyzeSource(const SourceFile& source, const Options& options)
{
    std::vector<Finding> findings;
    if ((options.packs & kPackDeterminism) != 0)
        runDeterminismPack(source, options, findings);
    if ((options.packs & kPackNumeric) != 0)
        runNumericPack(source, findings);
    if ((options.packs & kPackApi) != 0)
        runApiPack(source, findings);
    if ((options.packs & kPackHeader) != 0)
        runHeaderPack(source, findings);
    if ((options.packs & kPackConcurrency) != 0)
        runConcurrencyPack(source, options, findings);
    fillFingerprints(source, findings);
    applySuppressions(source, findings);
    return findings;
}

/** Worker count for the tree scan: Options::jobs, or the hardware
 *  concurrency (capped so tiny scans do not spawn idle threads). */
unsigned
resolveJobs(const Options& options, std::size_t work_items)
{
    unsigned jobs = options.jobs;
    if (jobs == 0) {
        jobs = std::thread::hardware_concurrency();
        if (jobs == 0)
            jobs = 1;
        jobs = std::min(jobs, 8u);
    }
    if (work_items < jobs)
        jobs = static_cast<unsigned>(work_items);
    return std::max(jobs, 1u);
}

/**
 * Run @p work(i) for every index in [0, count) across @p jobs
 * threads. Work is claimed by atomic counter, so output written to
 * index-addressed slots is deterministic regardless of schedule.
 */
template <typename Work>
void
parallelIndexed(std::size_t count, unsigned jobs, const Work& work)
{
    if (jobs <= 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            work(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    const auto worker = [&next, count, &work] {
        for (std::size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1))
            work(i);
    };
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (unsigned j = 0; j < jobs; ++j)
        threads.emplace_back(worker);
    for (std::thread& t : threads)
        t.join();
}

} // namespace

std::vector<Finding>
analyzeFile(const fs::path& file, const Options& options,
            const fs::path& scan_target)
{
    SourceFile source = loadSourceFile(file);
    source.guard_rel =
        guardRelativePath(file, options.include_root, scan_target);
    std::vector<Finding> findings = analyzeSource(source, options);

    // The cross-file packs run over a one-file index so single-file
    // invocations (and the rule fixtures) still exercise them.
    if ((options.packs &
         (kPackFlow | kPackPersist | kPackArch)) != 0) {
        std::vector<SourceFile> one;
        one.push_back(std::move(source));
        std::vector<Finding> cross;
        if ((options.packs & (kPackFlow | kPackPersist)) != 0) {
            const SymbolIndex index = buildSymbolIndex(one, options);
            if ((options.packs & kPackFlow) != 0)
                runFlowPack(one[0], index, cross);
            if ((options.packs & kPackPersist) != 0)
                runPersistPack(one, index, options, cross);
        }
        if ((options.packs & kPackArch) != 0)
            runArchPack(one, options, cross);
        fillFingerprints(one[0], cross);
        applySuppressions(one[0], cross);
        findings.insert(findings.end(), cross.begin(), cross.end());
    }
    return findings;
}

std::vector<SourceFile>
loadSourceTree(const std::vector<fs::path>& targets,
               const Options& options)
{
    std::vector<std::pair<fs::path, fs::path>> files; // (file, target)
    for (const fs::path& target : targets) {
        if (fs::is_directory(target)) {
            const bool target_is_fixtures =
                target.generic_string().find("fixtures") !=
                std::string::npos;
            for (const auto& entry :
                 fs::recursive_directory_iterator(target)) {
                if (!entry.is_regular_file())
                    continue;
                const fs::path& p = entry.path();
                if (p.extension() != ".hpp" && p.extension() != ".cpp")
                    continue;
                if (p.generic_string().find("/build") !=
                    std::string::npos)
                    continue;
                // Fixture trees hold deliberate violations; they are
                // only scanned when targeted explicitly.
                if (!target_is_fixtures &&
                    p.generic_string().find("fixtures") !=
                        std::string::npos)
                    continue;
                files.emplace_back(p, target);
            }
        } else {
            files.emplace_back(target, target);
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    std::vector<SourceFile> sources(files.size());
    parallelIndexed(files.size(), resolveJobs(options, files.size()),
                    [&files, &sources, &options](std::size_t i) {
                        SourceFile source =
                            loadSourceFile(files[i].first);
                        source.guard_rel = guardRelativePath(
                            files[i].first, options.include_root,
                            files[i].second);
                        sources[i] = std::move(source);
                    });
    return sources;
}

AnalyzeResult
analyzePaths(const std::vector<fs::path>& targets, const Options& options)
{
    AnalyzeResult result;
    const std::vector<SourceFile> sources =
        loadSourceTree(targets, options);
    result.jobs_used = resolveJobs(options, sources.size());

    // Per-file packs in parallel; slot-per-file keeps the merged
    // order identical to a serial scan.
    std::vector<std::vector<Finding>> slots(sources.size());
    parallelIndexed(sources.size(), result.jobs_used,
                    [&sources, &slots, &options](std::size_t i) {
                        slots[i] = analyzeSource(sources[i], options);
                    });
    for (std::vector<Finding>& slot : slots)
        result.findings.insert(result.findings.end(), slot.begin(),
                               slot.end());

    // Cross-file passes: the symbol index and call graph feed the
    // nondeterminism taint pass (det) and lock-order pass (conc); the
    // index alone feeds the flow and persist packs; arch works from
    // the include graph of the loaded tree.
    std::vector<Finding> cross;
    if ((options.packs & (kPackDeterminism | kPackConcurrency |
                          kPackFlow | kPackPersist)) != 0) {
        const SymbolIndex index = buildSymbolIndex(sources, options);
        if ((options.packs &
             (kPackDeterminism | kPackConcurrency)) != 0) {
            const CallGraph graph = buildCallGraph(index);
            if ((options.packs & kPackDeterminism) != 0) {
                const TaintResult taint =
                    propagateNondeterminism(index, graph);
                runTaintPass(index, graph, taint, cross);
            }
            if ((options.packs & kPackConcurrency) != 0)
                runLockOrderPass(index, graph, cross);
        }
        if ((options.packs & kPackFlow) != 0)
            for (const SourceFile& source : sources)
                runFlowPack(source, index, cross);
        if ((options.packs & kPackPersist) != 0)
            runPersistPack(sources, index, options, cross);
    }
    if ((options.packs & kPackArch) != 0)
        runArchPack(sources, options, cross);
    if (!cross.empty()) {
        for (const SourceFile& source : sources) {
            fillFingerprints(source, cross);
            applySuppressions(source, cross);
        }
        result.findings.insert(result.findings.end(), cross.begin(),
                               cross.end());
    }

    result.files_scanned = sources.size();
    sortFindings(result.findings);
    return result;
}

std::size_t
countActive(const std::vector<Finding>& findings)
{
    std::size_t active = 0;
    for (const Finding& f : findings)
        if (!f.suppressed && !f.baselined)
            ++active;
    return active;
}

std::string
renderText(const AnalyzeResult& result, const std::string& tool_name)
{
    std::ostringstream out;
    std::size_t suppressed = 0;
    std::size_t baselined = 0;
    for (const Finding& f : result.findings) {
        if (f.suppressed) {
            ++suppressed;
            continue;
        }
        if (f.baselined) {
            ++baselined;
            continue;
        }
        out << f.file << ":" << f.line << ": [" << f.rule << "] "
            << f.message << "\n";
    }
    out << tool_name << ": " << result.files_scanned << " files, "
        << countActive(result.findings) << " findings (" << suppressed
        << " suppressed, " << baselined << " baselined)\n";
    return out.str();
}

namespace {

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

} // namespace

std::string
renderJson(const AnalyzeResult& result)
{
    std::ostringstream out;
    out << "{\n  \"files_scanned\": " << result.files_scanned
        << ",\n  \"active_findings\": "
        << countActive(result.findings) << ",\n  \"findings\": [";
    bool first = true;
    for (const Finding& f : result.findings) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "    {\"file\": \"" << jsonEscape(f.file)
            << "\", \"line\": " << f.line << ", \"rule\": \""
            << jsonEscape(f.rule) << "\", \"message\": \""
            << jsonEscape(f.message) << "\", \"suppressed\": "
            << (f.suppressed ? "true" : "false")
            << ", \"baselined\": " << (f.baselined ? "true" : "false")
            << "}";
    }
    out << "\n  ]\n}\n";
    return out.str();
}

std::string
renderSarif(const AnalyzeResult& result, const std::string& tool_name)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"$schema\": "
           "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [\n"
        << "    {\n"
        << "      \"tool\": {\n"
        << "        \"driver\": {\n"
        << "          \"name\": \"" << jsonEscape(tool_name) << "\",\n"
        << "          \"rules\": [";
    bool first = true;
    for (const RuleInfo& info : ruleCatalog()) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "            {\"id\": \"" << jsonEscape(info.id)
            << "\", \"shortDescription\": {\"text\": \""
            << jsonEscape(info.id + " (" + info.pack + " pack)")
            << "\"}, \"fullDescription\": {\"text\": \""
            << jsonEscape(info.rationale)
            << "\"}, \"help\": {\"text\": \"" << jsonEscape(info.idiom)
            << "\"}}";
    }
    out << "\n          ]\n"
        << "        }\n"
        << "      },\n"
        << "      \"results\": [";
    first = true;
    for (const Finding& f : result.findings) {
        if (f.suppressed || f.baselined)
            continue;
        out << (first ? "\n" : ",\n");
        first = false;
        out << "        {\"ruleId\": \"" << jsonEscape(f.rule)
            << "\", \"level\": \"error\", \"message\": {\"text\": \""
            << jsonEscape(f.message)
            << "\"}, \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": \""
            << jsonEscape(f.file)
            << "\"}, \"region\": {\"startLine\": "
            << (f.line > 0 ? f.line : 1) << "}}}]}";
    }
    out << "\n      ]\n    }\n  ]\n}\n";
    return out.str();
}

const std::vector<RuleInfo>&
ruleCatalog()
{
    static const std::vector<RuleInfo> catalog = {
        {"api-explicit", "api",
         "A single-argument constructor without `explicit` is an "
         "implicit conversion: a stray int silently becomes a "
         "Configuration and the compiler says nothing.",
         "Mark single-argument constructors `explicit`; allow "
         "intentional conversions with a named factory instead."},
        {"api-nodiscard", "api",
         "A non-mutating, value-returning function whose result is "
         "dropped is almost always a bug (the caller thought it "
         "mutated).",
         "Add [[nodiscard]] to non-mutating value-returning functions "
         "in public headers."},
        {"api-raw-params", "api",
         "Adjacent raw int/double resource parameters (cores, ways, "
         "bandwidth) transpose silently at call sites.",
         "Take a Configuration/struct parameter, or strong typedefs, "
         "so the compiler catches swapped arguments."},
        {"arch-forbidden-include", "arch",
         "A file reaching a subsystem outside its declared layer "
         "(transitively, through project includes) couples layers the "
         "design keeps apart; the dependency compiles today and makes "
         "every future refactor of the lower layer drag the upper one "
         "along.",
         "Move the shared type down (or the dependent code up), or "
         "extend the layering DAG in tools/analyzer/rules_arch.cpp "
         "and GUIDE.md section 10 as a deliberate design decision. "
         "The finding prints the shortest offending include chain."},
        {"arch-include-cycle", "arch",
         "Mutually-including headers only build while include order "
         "and guards line up by accident, and they make the subsystem "
         "graph cyclic so no layer can be built, tested, or reasoned "
         "about alone.",
         "Break the cycle with a forward declaration or by moving the "
         "shared piece into a header both sides may include."},
        {"arch-simd-confined", "arch",
         "Intrinsics or vector extensions outside the linalg SIMD "
         "home fork the numerics: a second vector code path with its "
         "own dispatch, fallback, and bit-identity story that no "
         "shared test pins.",
         "Express the loop through the linalg::simd kernel API (or "
         "add a kernel there); its scalar reference implementations "
         "and runtime dispatch are tested in one place."},
        {"arch-unknown-subsystem", "arch",
         "A directory under include/satori/ or src/ that is not in "
         "the declared layering DAG is invisible to the layering "
         "check, so its dependencies decay unreviewed.",
         "Add the subsystem and its allowed dependencies to "
         "subsystemDeps() in tools/analyzer/rules_arch.cpp and to the "
         "diagram in GUIDE.md section 10."},
        {"conc-global-mutable", "conc",
         "Mutable static state is shared by every thread and every "
         "test in the process; unsynchronized writes race and leak "
         "state across runs, breaking replay.",
         "Make it const/constexpr/atomic, guard it with a "
         "common::Mutex + SATORI_GUARDED_BY, or pass the state "
         "explicitly through the call chain."},
        {"conc-ref-capture", "conc",
         "A [&] lambda handed to a deferred executor (std::thread, "
         "async, submit queues) can run after the captured frame is "
         "gone — a use-after-scope that sanitizers only catch when "
         "the schedule cooperates.",
         "Capture by value, or keep the work on "
         "common::parallelFor, which joins before returning so "
         "reference captures cannot dangle."},
        {"conc-parallel-accumulate", "conc",
         "Work items in a parallelFor body run concurrently: `sum += "
         "x` or push_back on a captured container races and makes "
         "results depend on the schedule, breaking the byte-identical "
         "trace contract.",
         "Write each item's result to its own pre-sized slot "
         "(out[i] = ...) and aggregate after the join in index "
         "order, or use a std::atomic counter."},
        {"conc-raw-thread", "conc",
         "Raw std::thread scatters join/error/determinism handling "
         "across the tree; a detached thread outliving main is "
         "undefined behavior at shutdown.",
         "Route parallel work through common::ThreadPool / "
         "parallelFor, which centralizes joins, first-error capture, "
         "and the slot-write idiom."},
        {"conc-unannotated-mutex", "conc",
         "A mutex member with no SATORI_GUARDED_BY siblings protects "
         "nothing the compiler can see, so clang -Wthread-safety "
         "verifies nothing and lock discipline erodes silently.",
         "Declare the mutex as common::Mutex and annotate each "
         "protected member with SATORI_GUARDED_BY(mutex_) (see "
         "include/satori/common/thread_annotations.hpp). The one "
         "documented exception is obs::Tracer (GUIDE.md §13)."},
        {"conc-lock-order", "conc",
         "Two call paths acquiring the same two locks in opposite "
         "orders deadlock the first time the schedules interleave — "
         "typically in production, not in tests.",
         "Pick one global acquisition order and keep it; release the "
         "first lock before calling into code that takes the other."},
        {"det-pointer-hash", "det",
         "Pointer bits differ run to run under ASLR; hashing or "
         "casting them into keys/traces makes output "
         "non-reproducible.",
         "Key on a stable id (job index, name) instead of an "
         "address."},
        {"det-random-device", "det",
         "std::random_device draws OS entropy, so the run cannot be "
         "replayed from its seed.",
         "Seed satori::Rng explicitly from the experiment plan."},
        {"det-taint-reaches-trace", "det",
         "A trace/audit emit site whose call chain reaches a "
         "nondeterminism source (wall clock, OS entropy, thread "
         "identity, pointer bits) writes values that differ between "
         "identical runs, breaking the byte-identical replay "
         "contract.",
         "Route the value through simulated time or a seeded Rng; if "
         "the read is genuinely observability-only, move it into an "
         "allowlisted layer (src/obs/) so the boundary is explicit."},
        {"det-unordered-iter", "det",
         "Iteration order of unordered containers varies across "
         "implementations and runs; feeding it into output makes "
         "traces unstable.",
         "Sort the keys first, or use std::map when order reaches "
         "output."},
        {"det-wallclock", "det",
         "Wall-clock reads differ every run; any decision or trace "
         "derived from them cannot replay byte-for-byte.",
         "Use the simulator's virtual time; only the allowlisted "
         "harness/CLI/obs set may read real time."},
        {"flow-dead-after-fatal", "flow",
         "SATORI_FATAL / SATORI_PANIC / abort never return, so a "
         "statement only reachable by falling through one is dead "
         "code — usually a cleanup or fallback the author believed "
         "still ran.",
         "Delete the unreachable statement, or restructure so the "
         "cleanup runs before the fatal path (RAII handles most "
         "cases)."},
        {"flow-use-after-move", "flow",
         "A variable read after std::move consumed it holds an "
         "unspecified value; the code works until the moved-from "
         "state changes with the standard library version, then "
         "fails far from the move.",
         "Reassign the variable before reusing it (moved-from "
         "objects may be assigned to), or stop moving it if the "
         "later read is intentional."},
        {"guard-define-mismatch", "header",
         "An #ifndef whose #define spells a different macro leaves "
         "the guard open: the header double-includes.",
         "Make the #define repeat the #ifndef macro exactly."},
        {"guard-mismatch", "header",
         "Guard names that do not follow SATORI_<PATH>_HPP collide "
         "or confuse moved files.",
         "Derive the guard from the path: "
         "satori/common/types.hpp -> SATORI_COMMON_TYPES_HPP."},
        {"missing-guard", "header",
         "A header without an include guard double-includes the "
         "moment two translation units meet it.",
         "Open every header with #ifndef/#define "
         "SATORI_<PATH>_HPP and close with #endif."},
        {"num-float-eq", "num",
         "Floating == / != compares rounded representations; results "
         "flip with optimization level and platform.",
         "Compare against an explicit tolerance (std::abs(a - b) < "
         "eps) or restructure to avoid the comparison."},
        {"num-int-abs", "num",
         "std::abs without <cmath> can bind <cstdlib>'s integer "
         "overload and silently truncate a double argument.",
         "Include <cmath> and use std::fabs (or std::abs with a "
         "visibly floating argument)."},
        {"persist-asymmetric-state", "persist",
         "The snapshot codec is positional: restoreState must read "
         "exactly the sequence saveState wrote, op for op, or every "
         "later field decodes from the wrong bytes and the restore "
         "fails (or worse, succeeds with garbage).",
         "Mirror the put sequence in restoreState exactly — same "
         "ops, same order, loops and conditionals shaped alike — and "
         "give every saveState a restoreState twin."},
        {"persist-manifest-stale", "persist",
         "A schema manifest that disagrees with the sources about "
         "the format version (or lists classes that no longer "
         "persist) cannot catch drift, which is its whole job.",
         "Regenerate it: satori_analyzer --write-persist-schema "
         "tools/persist_schema.txt include src — in the same change "
         "that bumps kSnapshotFormatVersion."},
        {"persist-schema-drift", "persist",
         "Changing a put/get sequence without bumping "
         "kSnapshotFormatVersion makes old on-disk snapshots decode "
         "under the new layout: resume reads garbage instead of "
         "refusing cleanly.",
         "Bump kSnapshotFormatVersion in "
         "include/satori/persist/snapshot.hpp and regenerate the "
         "manifest: satori_analyzer --write-persist-schema "
         "tools/persist_schema.txt include src."},
        {"using-namespace", "header",
         "`using namespace` at header scope injects names into every "
         "includer, causing collisions that surface far from the "
         "header.",
         "Qualify names, or scope the using-declaration inside a "
         "function body."},
    };
    return catalog;
}

bool
explainRule(const std::string& rule_id, std::string& out)
{
    for (const RuleInfo& info : ruleCatalog()) {
        if (info.id != rule_id)
            continue;
        std::ostringstream text;
        text << info.id << " (pack: " << info.pack << ")\n\n"
             << "Why:\n  " << info.rationale << "\n\n"
             << "Instead:\n  " << info.idiom << "\n\n"
             << "Silence a deliberate use with `// satori-analyzer: "
                "allow("
             << info.id << ")` on the line or the line above.\n";
        out = text.str();
        return true;
    }
    std::ostringstream text;
    text << "unknown rule id '" << rule_id << "'. Known rules:\n";
    for (const RuleInfo& info : ruleCatalog())
        text << "  " << info.id << "\n";
    out = text.str();
    return false;
}

} // namespace satori_analyzer
