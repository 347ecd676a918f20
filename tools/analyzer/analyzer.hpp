/**
 * @file
 * satori_analyzer: project-specific semantic static analysis for the
 * SATORI tree. One engine, eight rule packs:
 *
 *   det    - determinism: no wall clocks, no std::random_device, no
 *            emitting loops over unordered containers, no pointer-value
 *            hashing — per line, plus a cross-file taint pass
 *            (det-taint-reaches-trace) that propagates nondeterminism
 *            sources through the project call graph and flags any
 *            trace/audit emit site that reaches one. A (plan, seed)
 *            pair must replay byte-for-byte.
 *   num    - numeric hygiene: no floating == / !=, no C-style (int) or
 *            (long) narrowing of floating expressions, no std::abs that
 *            can bind <cstdlib>'s integer overload.
 *   api    - API contracts in public headers: [[nodiscard]] on
 *            non-mutating value-returning functions, explicit on
 *            single-argument constructors, no adjacent raw int/double
 *            resource parameters (the cores/ways/bandwidth trap).
 *   header - include-guard naming, #define matching the #ifndef, and
 *            no `using namespace` at header scope (the legacy
 *            satori_lint checks, folded in as a pass).
 *   conc   - concurrency discipline for the determinism contract:
 *            mutable statics without a guard, by-reference captures
 *            handed to deferred executors, non-slot accumulation
 *            inside parallelFor bodies, raw std::thread outside the
 *            harness, member mutexes without SATORI_GUARDED_BY
 *            siblings, and cross-function lock-order cycles.
 *   persist - saveState/restoreState symmetry: the StateWriter put
 *            sequence of every persistent type must mirror its
 *            StateReader get sequence tag for tag, and the extracted
 *            schema must match the checked-in tools/persist_schema.txt
 *            manifest unless kSnapshotFormatVersion was bumped.
 *   arch   - subsystem layering: every `#include "satori/..."` edge
 *            checked against the declared dependency DAG (core must
 *            not reach sim, common depends on nothing, ...), with
 *            include-cycle detection and shortest-chain reports.
 *   flow   - CFG-based intra-procedural dataflow: use-after-move on
 *            some path, discarded [[nodiscard]] results, statements
 *            only reachable by falling through a fatal call.
 *
 * Findings are reported as `file:line: [rule-id] message`. A finding
 * can be silenced inline (`// satori-analyzer: allow(rule-id)`) on the
 * offending line or the line above, or grandfathered in a checked-in
 * baseline file (see loadBaseline() for the grammar).
 *
 * The scanner is token-heuristic, not a full parser: comments, string
 * and character literals are stripped first, then the per-file packs
 * work on lines, declared-identifier tables, and a lightweight scope
 * walker, while the cross-file passes work on a project-wide symbol
 * index and call graph derived from the same stripped-token model.
 * False negatives are acceptable; the rule set is tuned so the real
 * tree compiles the packs with zero noise.
 */

#ifndef SATORI_TOOLS_ANALYZER_ANALYZER_HPP
#define SATORI_TOOLS_ANALYZER_ANALYZER_HPP

#include <cstddef>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace satori_analyzer {

// --- rule packs ------------------------------------------------------

inline constexpr unsigned kPackDeterminism = 1u << 0;
inline constexpr unsigned kPackNumeric = 1u << 1;
inline constexpr unsigned kPackApi = 1u << 2;
inline constexpr unsigned kPackHeader = 1u << 3;
inline constexpr unsigned kPackConcurrency = 1u << 4;
inline constexpr unsigned kPackPersist = 1u << 5;
inline constexpr unsigned kPackArch = 1u << 6;
inline constexpr unsigned kPackFlow = 1u << 7;
inline constexpr unsigned kPackAll =
    kPackDeterminism | kPackNumeric | kPackApi | kPackHeader |
    kPackConcurrency | kPackPersist | kPackArch | kPackFlow;

/**
 * Parse a comma-separated pack list ("det,num", "api", "conc", "all",
 * or the legacy alias "header") into a pack mask. Returns 0 on an
 * unknown pack name (the driver reports usage).
 */
[[nodiscard]] unsigned parsePackList(const std::string& list);

// --- findings --------------------------------------------------------

/** One diagnostic produced by a rule pass. */
struct Finding
{
    std::string file;        ///< Path as scanned (generic separators).
    int line = 0;            ///< 1-based line of the finding.
    std::string rule;        ///< Kebab-case rule id, e.g. "num-float-eq".
    std::string message;     ///< Human-readable explanation.
    std::string fingerprint; ///< Trimmed source line (baseline matching).
    bool suppressed = false; ///< Silenced by an inline allow comment.
    bool baselined = false;  ///< Silenced by a baseline entry.
};

/** Analysis options shared by the driver, the lint alias, and tests. */
struct Options
{
    unsigned packs = kPackAll;

    /**
     * Include root used to derive expected header-guard names; files
     * below it use their path relative to it (include/ ->
     * SATORI_COMMON_TYPES_HPP for satori/common/types.hpp). Files
     * outside it fall back to their path relative to the scan
     * target's parent (bench/bench_util.hpp ->
     * SATORI_BENCH_BENCH_UTIL_HPP).
     */
    std::filesystem::path include_root;

    /**
     * Path substrings (generic separators) where wall-clock reads are
     * legitimate: interactive CLI entry points and bench harness
     * timing. Everything else must use simulated time.
     */
    std::vector<std::string> wallclock_allow = {
        "tools/satori_sim.cpp",
        // The analyzer driver times its own scan for --stats; the
        // reading never reaches a simulation artifact.
        "tools/satori_analyzer.cpp",
        "bench/bench_util",
        // Exactly the obs sources with a legitimate wall-clock /
        // syscall surface: span timing, the socket-serving exporter,
        // and the history store. The rest of the obs layer (registry,
        // audit, watchdog, the Observability context) runs on
        // simulated time and is NOT exempt.
        "obs/tracer",
        "obs/http_exporter",
        "obs/stats_history",
    };

    /**
     * Call tokens that mark a function as a decision-trace/audit emit
     * site for the cross-file det-taint-reaches-trace pass: reaching
     * a nondeterminism source from one of these functions breaks the
     * byte-identical replay contract.
     */
    std::vector<std::string> trace_emit_calls = {
        "emit", "writeCsv", "writeCsvHeader", "writeJsonl",
        "writeChromeTrace",
    };

    /**
     * Path substrings where raw std::thread construction or detach is
     * legitimate: the pool implementation itself. Everything else —
     * tests included — goes through common::ThreadPool/parallelFor.
     */
    std::vector<std::string> raw_thread_allow = {
        // The pool implementation lives in common/ (shared by the bo
        // engine's batched scoring and the harness); the harness
        // header is a thin alias kept for source compatibility.
        "include/satori/common/parallel",
        "src/common/parallel",
        "include/satori/harness/",
        "src/harness/",
        // The analyzer's own tree scan claims files from a small
        // worker pool; it cannot depend on the satori library.
        "tools/analyzer/engine.cpp",
        // The embedded HTTP exporter's serving/scraper threads block
        // in poll()/accept(); pool workers must stay available for
        // deterministic decision-path work.
        "obs/http_exporter",
    };

    /**
     * Path substrings where CPU intrinsics / vector extensions are
     * legitimate: the linalg SIMD kernels (dispatch + AVX2 bodies)
     * and the analyzer's own rule tables, which must spell the
     * marker strings to detect them.
     */
    std::vector<std::string> simd_allow = {
        "src/linalg/",
        "tools/analyzer/",
    };

    /**
     * Persist-schema manifest (tools/persist_schema.txt) to diff the
     * extracted saveState sequences against. Empty disables the
     * manifest rules (persist-schema-drift / persist-manifest-stale);
     * the asymmetry rule runs regardless.
     */
    std::filesystem::path persist_schema;

    /**
     * Worker threads for the per-file scan phase: 0 picks a value
     * from the hardware, 1 forces the serial path. Output is
     * path-sorted and byte-identical at every setting.
     */
    unsigned jobs = 0;
};

// --- source model ----------------------------------------------------

/** One physical line: raw text plus its comment/string-stripped form. */
struct SourceLine
{
    std::string raw;
    std::string code;    ///< raw minus comments, string/char literals.
    bool preproc = false; ///< Preprocessor directive or continuation.
};

/**
 * A scanned file plus the derived per-file identifier tables the rule
 * packs share.
 */
struct SourceFile
{
    std::filesystem::path path;
    std::string display;      ///< path.generic_string(), as reported.
    bool is_header = false;   ///< .hpp (api/header packs apply).
    std::string guard_rel;    ///< Relative path deriving the guard name.
    std::vector<SourceLine> lines; ///< lines[i] is line i+1.

    std::set<std::string> float_idents;     ///< declared double/float names.
    std::set<std::string> integer_idents;   ///< declared integer names.
    std::set<std::string> unordered_idents; ///< unordered_{map,set} names.
    bool has_cmath = false;
    bool has_cstdlib = false;
};

/** Load @p path and derive the identifier tables. */
[[nodiscard]] SourceFile loadSourceFile(const std::filesystem::path& path);

/**
 * Relative path used to derive the expected include-guard name: below
 * @p include_root, relative to it; otherwise relative to
 * @p scan_target's parent directory (or to @p scan_target itself when
 * the target is the file). Empty when no sensible relation exists.
 */
[[nodiscard]] std::string
guardRelativePath(const std::filesystem::path& file,
                  const std::filesystem::path& include_root,
                  const std::filesystem::path& scan_target);

// --- token helpers (shared by the rule passes and their tests) -------

/** True for [A-Za-z0-9_]. */
[[nodiscard]] bool isIdentChar(char c);

/** True if @p word occurs in @p s delimited by non-identifier chars. */
[[nodiscard]] bool containsWord(const std::string& s,
                                const std::string& word);

/**
 * Strip // and (multi-line) block comments plus string and character
 * literals; @p in_block carries block-comment state across lines.
 * Digit separators (1'000'000) are not treated as character literals;
 * raw strings (R"(...)") strip without terminating on embedded
 * quotes (single-line only — an unterminated raw literal strips to
 * end of line).
 */
[[nodiscard]] std::string stripCommentsAndStrings(const std::string& line,
                                                  bool& in_block);

/**
 * The token ending immediately before @p pos (whitespace skipped):
 * a qualified identifier chain (abc::def), a numeric literal, or a
 * single punctuation character. Empty at start of line.
 */
[[nodiscard]] std::string prevTokenBefore(const std::string& s,
                                          std::size_t pos);

/** The token starting at or after @p pos (whitespace skipped). */
[[nodiscard]] std::string nextTokenAfter(const std::string& s,
                                         std::size_t pos);

/**
 * Position of the closer matching the opener at @p s[pos], counting
 * nesting; std::string::npos if unbalanced within @p s.
 */
[[nodiscard]] std::size_t findMatching(const std::string& s,
                                       std::size_t pos, char open,
                                       char close);

/** True if @p token spells a floating-point literal (1.5, .5, 1e-3). */
[[nodiscard]] bool isFloatLiteral(const std::string& token);

/**
 * True if @p token names a floating-valued expression in @p file:
 * a declared double/float identifier, a floating literal, or a
 * known double-returning satori API (mean, stddev, clamp, ...).
 * Names declared with both an integer and a floating type somewhere
 * in the file are resolved by the nearest declaration at or above
 * @p line_index (0-based); ties go to not-floating.
 */
[[nodiscard]] bool isFloatingToken(const SourceFile& file,
                                   const std::string& token,
                                   std::size_t line_index);

// --- project model: symbol index, call graph, dataflow ---------------

/**
 * One call site inside a function body, with whatever qualification
 * the token stream offers: an explicit `X::` scope, a receiver
 * expression (`recv.name(...)` / `recv->name(...)` / `this->`), or
 * nothing. The call graph uses it to prune same-name false edges.
 */
struct CalleeRef
{
    std::string name;      ///< Unqualified callee name.
    std::string qualifier; ///< `X` from `X::name(` calls, else "".
    std::string receiver;  ///< Receiver token ("this" for this->),
                           ///< else "".
};

/**
 * One free or member function definition found by the symbol indexer,
 * with the per-function attribute lattice the cross-file passes
 * consume (direct nondeterminism use, trace-emit calls, lock
 * acquisitions).
 */
struct FunctionDef
{
    std::string name;      ///< Unqualified name (last :: component).
    std::string qualified; ///< Name as written (Class::name) for
                           ///< diagnostics.
    std::string display;   ///< Defining file (as reported).
    int line = 0;          ///< 1-based line of the definition.
    int body_line = 0;     ///< 1-based line of the first body char
                           ///< (after the opening `{`).
    std::string body;      ///< Stripped body text, '\n'-joined.
    std::string params;    ///< Raw text inside the parameter parens.

    /// Enclosing class/struct, from the in-class scope or the
    /// `Class::` prefix of an out-of-line definition; "" for free
    /// functions.
    std::string owner;

    /// Parameter names, left to right ("" for unnamed).
    std::vector<std::string> param_names;

    /// Declared parameter/local name -> normalized type key (last
    /// `::` component, smart-pointer wrappers unwrapped).
    std::map<std::string, std::string> var_types;

    /// Unqualified names of `name(` call tokens in the body.
    std::vector<std::string> callee_names;

    /// The same call sites with qualification context preserved.
    std::vector<CalleeRef> callees;

    /// Normalized lock expressions acquired in the body, in source
    /// order (MutexLock/lock_guard/unique_lock/scoped_lock ctor args
    /// and `expr.lock()` receivers).
    std::vector<std::string> locks_acquired;

    /// Defined in a wallclock_allow path: a sanctioned boundary the
    /// taint traversal neither enters nor sources from.
    bool allowlisted = false;

    /// Body calls one of Options::trace_emit_calls.
    bool emits_trace = false;

    /// Human-readable description of a direct nondeterminism source
    /// in the body ("" when clean): wall-clock read, OS entropy,
    /// thread-id, or pointer-value formatting.
    std::string nondet_what;
};

/** Project-wide function table with a by-name lookup. */
struct SymbolIndex
{
    std::vector<FunctionDef> functions;
    /// Unqualified name -> indices into functions (overloads and
    /// same-name members all resolve here; the passes are
    /// conservative about the ambiguity).
    std::map<std::string, std::vector<std::size_t>> by_name;

    /// Class name -> member field name -> normalized type key,
    /// harvested from in-class declarations (receiver-type
    /// resolution for call-edge pruning).
    std::map<std::string, std::map<std::string, std::string>>
        class_fields;
};

/** Build the index over every scanned file (heuristic, see @file). */
[[nodiscard]] SymbolIndex
buildSymbolIndex(const std::vector<SourceFile>& files,
                 const Options& options);

/**
 * Call edges resolved by callee name, pruned by qualification: an
 * explicit `X::` scope, a receiver whose type resolves through the
 * caller's parameter/local table or its class's field table, or the
 * caller's own class for unqualified/this-> calls restricts a
 * same-name candidate set to the matching owners. When nothing
 * resolves, every candidate keeps its edge (conservative — the
 * cross-file passes propagate monotone facts where a spurious edge
 * at worst widens a fact the reporting rules then filter).
 */
struct CallGraph
{
    /// callees[i] holds indices into SymbolIndex::functions, parallel
    /// to SymbolIndex::functions.
    std::vector<std::vector<std::size_t>> callees;
};

[[nodiscard]] CallGraph buildCallGraph(const SymbolIndex& index);

// --- control-flow graphs ---------------------------------------------

/**
 * One CFG node: a statement or a branch/loop condition. Nodes with no
 * successors terminate the function (return/throw/fatal or the last
 * statement).
 */
struct CfgNode
{
    std::string text; ///< Stripped statement text, trimmed.
    int line = 0;     ///< 1-based source line of the first token.
    std::vector<std::size_t> succ; ///< Indices into Cfg::nodes.
};

/**
 * Intra-procedural control-flow graph over the stripped statement
 * stream of one function body: if/else, while/for/do, switch with
 * case fallthrough, break/continue, and return/throw terminators are
 * modeled; goto is not (the tree has none). Nodes appear in source
 * order; entry is node 0 when any node exists.
 */
struct Cfg
{
    std::vector<CfgNode> nodes;
};

/** Build the CFG for @p def's body. */
[[nodiscard]] Cfg buildCfg(const FunctionDef& def);

/**
 * Per-function nondeterminism taint. A function is tainted when its
 * own body uses a nondeterminism source directly or when it calls a
 * tainted function; functions in allowlisted files are boundaries
 * (never sources, never traversed into).
 */
struct TaintResult
{
    std::vector<bool> tainted; ///< Parallel to SymbolIndex::functions.
    /// For tainted functions: the callee index one step closer to the
    /// source (self-index when the function is itself the source);
    /// reconstructs the offending call chain for diagnostics.
    std::vector<std::size_t> next_toward_source;
};

[[nodiscard]] TaintResult
propagateNondeterminism(const SymbolIndex& index, const CallGraph& graph);

// --- rule passes -----------------------------------------------------

void runDeterminismPack(const SourceFile& file, const Options& options,
                        std::vector<Finding>& findings);
void runNumericPack(const SourceFile& file, std::vector<Finding>& findings);
void runApiPack(const SourceFile& file, std::vector<Finding>& findings);
void runHeaderPack(const SourceFile& file, std::vector<Finding>& findings);

/** Per-file concurrency rules (conc-* except conc-lock-order). */
void runConcurrencyPack(const SourceFile& file, const Options& options,
                        std::vector<Finding>& findings);

/**
 * Cross-file det pass: report each non-allowlisted trace/audit emit
 * site whose call chain reaches a nondeterminism source
 * (det-taint-reaches-trace), with the chain in the message.
 */
void runTaintPass(const SymbolIndex& index, const CallGraph& graph,
                  const TaintResult& taint,
                  std::vector<Finding>& findings);

/**
 * Cross-file conc pass: two-lock ordering. Report when lock `a` is
 * held while `b` is acquired on one call path and `b` is held while
 * `a` is acquired on another (conc-lock-order). Locks are compared
 * by normalized source expression, so distinct same-named members in
 * unrelated classes can alias conservatively; false negatives, not
 * false positives, on the real tree.
 */
void runLockOrderPass(const SymbolIndex& index, const CallGraph& graph,
                      std::vector<Finding>& findings);

/**
 * CFG-based flow pack over every function @p index found in @p file:
 * locals/parameters used after std::move on some path without an
 * intervening reassignment (flow-use-after-move), and statements
 * that can only be reached by falling through a SATORI_FATAL /
 * SATORI_PANIC / abort / exit call (flow-dead-after-fatal).
 */
void runFlowPack(const SourceFile& file, const SymbolIndex& index,
                 std::vector<Finding>& findings);

/**
 * Persist pack: for every type with saveState/restoreState members,
 * extract the StateWriter put-sequence and StateReader get-sequence
 * as codec type tags (`u64`, `double`, `state(member)`, ... with `*`
 * for in-loop and `?` for conditional ops) and report divergence with
 * both locations (persist-asymmetric-state). With a manifest in
 * Options::persist_schema, additionally diff the extracted schema of
 * every include/- or src/-resident type against it: a sequence change
 * while the manifest still matches the source kSnapshotFormatVersion
 * is persist-schema-drift; version skew or dead manifest entries are
 * persist-manifest-stale.
 */
void runPersistPack(const std::vector<SourceFile>& sources,
                    const SymbolIndex& index, const Options& options,
                    std::vector<Finding>& findings);

/**
 * Render the extracted persist schema in manifest form (`version N`
 * header plus one `Class: tag tag ...` line per type), for
 * --write-persist-schema. Covers include/- and src/-resident types.
 */
[[nodiscard]] std::string
renderPersistSchema(const std::vector<SourceFile>& sources,
                    const SymbolIndex& index);

/**
 * Arch pack: check every `#include "satori/..."` edge against the
 * declared subsystem layering DAG (closure of the direct-dependency
 * table in rules_arch.cpp). Reports arch-forbidden-include with the
 * shortest offending include chain, arch-include-cycle on file-level
 * include cycles, arch-unknown-subsystem for directories missing
 * from the DAG, and arch-simd-confined for intrinsics/vector
 * extensions outside Options::simd_allow.
 */
void runArchPack(const std::vector<SourceFile>& sources,
                 const Options& options,
                 std::vector<Finding>& findings);

// --- suppression and baseline ----------------------------------------

/**
 * Mark findings silenced by `// satori-analyzer: allow(rule-a, ...)`
 * (or allow(all)) on the finding's line or the line directly above.
 */
void applySuppressions(const SourceFile& file,
                       std::vector<Finding>& findings);

/**
 * One grandfathered finding. Grammar (one per line, `#` comments):
 *
 *     <rule-id> | <path-suffix> | <trimmed source line>
 *
 * An entry silences at most one finding whose rule matches, whose
 * file ends with the path suffix, and whose trimmed source line
 * equals the fingerprint — so entries survive unrelated line-number
 * churn but die with the code they grandfathered.
 */
struct BaselineEntry
{
    std::string rule;
    std::string path_suffix;
    std::string fingerprint;
    int source_line = 0; ///< Line in the baseline file (diagnostics).
    bool used = false;
};

/**
 * Parse @p path into @p entries. Returns false and sets @p error on a
 * malformed line; a missing file is an error too (pass no baseline
 * instead).
 */
[[nodiscard]] bool loadBaseline(const std::filesystem::path& path,
                                std::vector<BaselineEntry>& entries,
                                std::string& error);

/** Mark at most one matching finding baselined per entry. */
void applyBaseline(std::vector<BaselineEntry>& entries,
                   std::vector<Finding>& findings);

// --- engine ----------------------------------------------------------

/** Aggregate result of analyzing a set of targets. */
struct AnalyzeResult
{
    std::vector<Finding> findings; ///< Sorted by (file, line, rule).
    std::size_t files_scanned = 0;
    unsigned jobs_used = 1; ///< Worker threads the tree scan ran on.
};

/**
 * Analyze one file with the packs enabled in @p options that apply to
 * its kind (det/num: any source; api/header: headers only). Inline
 * suppressions are applied; baselines are the caller's business.
 */
[[nodiscard]] std::vector<Finding>
analyzeFile(const std::filesystem::path& file, const Options& options,
            const std::filesystem::path& scan_target);

/**
 * Load every .hpp/.cpp under @p targets (files or directories,
 * recursively; paths containing "/build" are skipped, fixture trees
 * only when targeted explicitly), path-sorted and deduplicated, with
 * guard_rel derived per file. The per-file loads run on
 * Options::jobs workers; the returned order is identical at any job
 * count.
 */
[[nodiscard]] std::vector<SourceFile>
loadSourceTree(const std::vector<std::filesystem::path>& targets,
               const Options& options);

/**
 * Analyze every .hpp/.cpp under @p targets (files or directories,
 * recursively; paths containing "/build" are skipped) and return the
 * sorted findings. The per-file packs run in parallel across
 * Options::jobs workers; findings are merged in path order, so the
 * output is byte-identical to a serial scan.
 */
[[nodiscard]] AnalyzeResult
analyzePaths(const std::vector<std::filesystem::path>& targets,
             const Options& options);

/** Active findings only: neither suppressed nor baselined. */
[[nodiscard]] std::size_t countActive(const std::vector<Finding>& findings);

/** Render active findings as `file:line: [rule] message` lines. */
[[nodiscard]] std::string renderText(const AnalyzeResult& result,
                                     const std::string& tool_name);

/** Render the full result (including silenced findings) as JSON. */
[[nodiscard]] std::string renderJson(const AnalyzeResult& result);

/**
 * Render the active findings as a SARIF 2.1.0 log (one run, rule
 * metadata from the catalog) so CI can annotate PR diffs.
 */
[[nodiscard]] std::string renderSarif(const AnalyzeResult& result,
                                      const std::string& tool_name);

// --- rule catalog (--explain) ----------------------------------------

/** Documentation for one rule id, rendered by `--explain <rule-id>`. */
struct RuleInfo
{
    std::string id;        ///< Kebab-case rule id.
    std::string pack;      ///< Owning pack name ("det", "conc", ...).
    std::string rationale; ///< Why the rule exists in this tree.
    std::string idiom;     ///< The sanctioned replacement idiom.
};

/** Every rule the packs can emit, sorted by id. */
[[nodiscard]] const std::vector<RuleInfo>& ruleCatalog();

/**
 * Render the catalog entry for @p rule_id (rationale + sanctioned
 * idiom). Returns false when the id is unknown, leaving @p out with a
 * list of known ids.
 */
[[nodiscard]] bool explainRule(const std::string& rule_id,
                               std::string& out);

} // namespace satori_analyzer

#endif // SATORI_TOOLS_ANALYZER_ANALYZER_HPP
