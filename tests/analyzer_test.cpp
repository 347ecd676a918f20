/**
 * @file
 * Fixture tests for satori_analyzer: every rule id fires on its bad
 * fixture and stays silent on the good one, inline suppressions and
 * baseline entries each silence exactly one finding, and the engine's
 * rendering/pack plumbing behaves.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer/analyzer.hpp"

namespace {

namespace fs = std::filesystem;
using namespace satori_analyzer;

fs::path
fixture(const std::string& name)
{
    return fs::path(SATORI_ANALYZER_FIXTURES) / name;
}

/** Analyze one fixture with every pack enabled. */
std::vector<Finding>
analyzeFixture(const std::string& name)
{
    Options options;
    const fs::path path = fixture(name);
    return analyzeFile(path, options, path);
}

/** Active rule ids (suppressed/baselined excluded), deduplicated. */
std::set<std::string>
activeRules(const std::vector<Finding>& findings)
{
    std::set<std::string> rules;
    for (const Finding& f : findings)
        if (!f.suppressed && !f.baselined)
            rules.insert(f.rule);
    return rules;
}

struct RuleFixture
{
    const char* rule;
    const char* bad;
    const char* good;
};

const RuleFixture kRuleFixtures[] = {
    {"det-wallclock", "det_wallclock_bad.cpp", "det_wallclock_good.cpp"},
    {"det-random-device", "det_random_device_bad.cpp",
     "det_random_device_good.cpp"},
    {"det-unordered-iter", "det_unordered_iter_bad.cpp",
     "det_unordered_iter_good.cpp"},
    {"det-pointer-hash", "det_pointer_hash_bad.cpp",
     "det_pointer_hash_good.cpp"},
    {"num-float-eq", "num_float_eq_bad.cpp", "num_float_eq_good.cpp"},
    {"num-int-abs", "num_int_abs_bad.cpp", "num_int_abs_good.cpp"},
    {"api-nodiscard", "api_nodiscard_bad.hpp", "api_nodiscard_good.hpp"},
    {"api-explicit", "api_explicit_bad.hpp", "api_explicit_good.hpp"},
    {"api-raw-params", "api_raw_params_bad.hpp",
     "api_raw_params_good.hpp"},
    {"conc-global-mutable", "conc_global_mutable_bad.cpp",
     "conc_global_mutable_good.cpp"},
    {"conc-ref-capture", "conc_ref_capture_bad.cpp",
     "conc_ref_capture_good.cpp"},
    {"conc-parallel-accumulate", "conc_parallel_accumulate_bad.cpp",
     "conc_parallel_accumulate_good.cpp"},
    {"conc-raw-thread", "conc_raw_thread_bad.cpp",
     "conc_raw_thread_good.cpp"},
    {"conc-unannotated-mutex", "conc_unannotated_mutex_bad.hpp",
     "conc_unannotated_mutex_good.hpp"},
    {"flow-use-after-move", "flow_use_after_move_bad.cpp",
     "flow_use_after_move_good.cpp"},
    {"flow-dead-after-fatal", "flow_dead_fatal_bad.cpp",
     "flow_dead_fatal_good.cpp"},
    {"persist-asymmetric-state", "persist_asym_bad.cpp",
     "persist_asym_good.cpp"},
    {"arch-simd-confined", "arch_simd_confined_bad.cpp",
     "arch_simd_confined_good.cpp"},
};

TEST(AnalyzerRules, BadFixturesFireExactlyTheirRule)
{
    for (const RuleFixture& rf : kRuleFixtures) {
        const auto findings = analyzeFixture(rf.bad);
        const auto rules = activeRules(findings);
        EXPECT_EQ(rules, std::set<std::string>{rf.rule})
            << rf.bad << " should fire only " << rf.rule;
    }
}

TEST(AnalyzerRules, GoodFixturesAreClean)
{
    for (const RuleFixture& rf : kRuleFixtures) {
        const auto findings = analyzeFixture(rf.good);
        EXPECT_EQ(countActive(findings), 0u)
            << rf.good << " should be clean; first finding: "
            << (findings.empty() ? std::string("none")
                                 : findings.front().rule + ": " +
                                       findings.front().message);
    }
}

TEST(AnalyzerRules, WallclockAllowlistCoversNamedObsSourcesOnly)
{
    // The same clock-reading code analyzed three ways. The allowlist
    // names exactly the obs sources with a wall-clock surface
    // (obs/tracer, obs/http_exporter, obs/stats_history): a path
    // matching one of them is exempt ...
    const auto allowed =
        analyzeFixture("src/obs/stats_history_clock.cpp");
    EXPECT_EQ(countActive(allowed), 0u)
        << "obs/stats_history fixture should be allowlisted; first "
           "finding: "
        << (allowed.empty() ? std::string("none")
                            : allowed.front().rule + ": " +
                                  allowed.front().message);
    // ... while merely living under src/obs/ is no longer enough -
    // the registry/audit/watchdog side of the layer runs on
    // simulated time and det-wallclock still fires there ...
    const auto inside_obs =
        activeRules(analyzeFixture("src/obs/det_wallclock_obs.cpp"));
    EXPECT_EQ(inside_obs, std::set<std::string>{"det-wallclock"})
        << "non-allowlisted src/obs/ sources must not be exempt";
    // ... and any other path fires as before.
    const auto outside =
        activeRules(analyzeFixture("det_wallclock_bad.cpp"));
    EXPECT_EQ(outside, std::set<std::string>{"det-wallclock"});
}

TEST(AnalyzerRules, HeaderPackFlagsGuardMismatchAndUsingNamespace)
{
    const auto bad = activeRules(analyzeFixture("header_guard_bad.hpp"));
    EXPECT_EQ(bad, (std::set<std::string>{"guard-mismatch",
                                          "using-namespace"}));
    EXPECT_EQ(countActive(analyzeFixture("header_guard_good.hpp")), 0u);
}

TEST(AnalyzerEngine, InlineAllowSilencesExactlyOneFinding)
{
    const auto findings = analyzeFixture("suppress_one.cpp");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(countActive(findings), 1u);
    const auto suppressed =
        std::count_if(findings.begin(), findings.end(),
                      [](const Finding& f) { return f.suppressed; });
    EXPECT_EQ(suppressed, 1);
    for (const Finding& f : findings)
        EXPECT_EQ(f.rule, "num-float-eq");
}

TEST(AnalyzerEngine, BaselineEntrySilencesExactlyOneFinding)
{
    auto findings = analyzeFixture("baseline_one.cpp");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(countActive(findings), 2u);

    std::vector<BaselineEntry> entries;
    std::string error;
    ASSERT_TRUE(loadBaseline(fixture("baseline_one.txt"), entries, error))
        << error;
    ASSERT_EQ(entries.size(), 1u);
    applyBaseline(entries, findings);

    EXPECT_EQ(countActive(findings), 1u);
    EXPECT_TRUE(entries[0].used);
    // The grandfathered line is the first one; the fresh one stays.
    const auto baselined =
        std::find_if(findings.begin(), findings.end(),
                     [](const Finding& f) { return f.baselined; });
    ASSERT_NE(baselined, findings.end());
    EXPECT_EQ(baselined->fingerprint, "return a == b;");
}

TEST(AnalyzerEngine, MissingOrMalformedBaselineIsAnError)
{
    std::vector<BaselineEntry> entries;
    std::string error;
    EXPECT_FALSE(
        loadBaseline(fixture("does_not_exist.txt"), entries, error));
    EXPECT_FALSE(error.empty());
}

TEST(AnalyzerEngine, PackListParsesNamesAndAliases)
{
    EXPECT_EQ(parsePackList("all"), kPackAll);
    EXPECT_EQ(parsePackList("det"), kPackDeterminism);
    EXPECT_EQ(parsePackList("num,api"), kPackNumeric | kPackApi);
    EXPECT_EQ(parsePackList("header"), kPackHeader);
    EXPECT_EQ(parsePackList("conc"), kPackConcurrency);
    EXPECT_EQ(parsePackList("concurrency"), kPackConcurrency);
    EXPECT_EQ(parsePackList("persist"), kPackPersist);
    EXPECT_EQ(parsePackList("arch"), kPackArch);
    EXPECT_EQ(parsePackList("flow"), kPackFlow);
    EXPECT_EQ(parsePackList("persist,arch,flow"),
              kPackPersist | kPackArch | kPackFlow);
    EXPECT_EQ(parsePackList("bogus"), 0u);
}

TEST(AnalyzerEngine, ConcSuppressionsSilenceEveryPerFileRule)
{
    const auto findings = analyzeFixture("conc_suppressed.cpp");
    EXPECT_GE(findings.size(), 5u);
    EXPECT_EQ(countActive(findings), 0u)
        << "first active: "
        << (findings.empty() ? std::string("none")
                             : findings.front().rule);
    std::set<std::string> suppressed;
    for (const Finding& f : findings)
        if (f.suppressed)
            suppressed.insert(f.rule);
    EXPECT_EQ(suppressed,
              (std::set<std::string>{
                  "conc-global-mutable", "conc-ref-capture",
                  "conc-parallel-accumulate", "conc-raw-thread",
                  "conc-unannotated-mutex"}));
}

// --- cross-file passes: taint and lock order -------------------------

/** Analyze a fixture directory with every pack enabled. */
AnalyzeResult
analyzeFixtureDir(const std::string& name)
{
    Options options;
    return analyzePaths({fixture(name)}, options);
}

TEST(AnalyzerCrossFile, TaintFlowsFromSourceToEmitSite)
{
    const AnalyzeResult result = analyzeFixtureDir("taint_bad");
    EXPECT_EQ(result.files_scanned, 2u);
    EXPECT_EQ(activeRules(result.findings),
              std::set<std::string>{"det-taint-reaches-trace"});
    const auto hit =
        std::find_if(result.findings.begin(), result.findings.end(),
                     [](const Finding& f) {
                         return f.rule == "det-taint-reaches-trace";
                     });
    ASSERT_NE(hit, result.findings.end());
    // The finding lands on the emit site and names the full chain
    // down to the source.
    EXPECT_NE(hit->file.find("emitter.cpp"), std::string::npos);
    EXPECT_NE(hit->message.find("recordSample"), std::string::npos);
    EXPECT_NE(hit->message.find("sampleValue"), std::string::npos);
    EXPECT_NE(hit->message.find("workerTag"), std::string::npos);
    EXPECT_NE(hit->message.find("thread identity"), std::string::npos);
}

TEST(AnalyzerCrossFile, DeterministicChainStaysClean)
{
    const AnalyzeResult result = analyzeFixtureDir("taint_good");
    EXPECT_EQ(countActive(result.findings), 0u)
        << "first finding: "
        << (result.findings.empty() ? std::string("none")
                                    : result.findings.front().message);
}

TEST(AnalyzerCrossFile, TaintFindingHonorsInlineAllow)
{
    const AnalyzeResult result = analyzeFixtureDir("taint_suppressed");
    EXPECT_EQ(countActive(result.findings), 0u);
    const auto suppressed = std::count_if(
        result.findings.begin(), result.findings.end(),
        [](const Finding& f) {
            return f.suppressed && f.rule == "det-taint-reaches-trace";
        });
    EXPECT_EQ(suppressed, 1);
}

TEST(AnalyzerCrossFile, LockOrderInversionDetectedThroughCallGraph)
{
    const AnalyzeResult result = analyzeFixtureDir("lock_order_bad");
    EXPECT_EQ(activeRules(result.findings),
              std::set<std::string>{"conc-lock-order"});
    const auto hit =
        std::find_if(result.findings.begin(), result.findings.end(),
                     [](const Finding& f) {
                         return f.rule == "conc-lock-order";
                     });
    ASSERT_NE(hit, result.findings.end());
    EXPECT_NE(hit->message.find("mu_a"), std::string::npos);
    EXPECT_NE(hit->message.find("mu_b"), std::string::npos);
}

TEST(AnalyzerCrossFile, AgreedLockOrderStaysClean)
{
    const AnalyzeResult result = analyzeFixtureDir("lock_order_good");
    EXPECT_EQ(countActive(result.findings), 0u)
        << "first finding: "
        << (result.findings.empty() ? std::string("none")
                                    : result.findings.front().message);
}

TEST(AnalyzerCrossFile, LockOrderFindingHonorsInlineAllow)
{
    const AnalyzeResult result =
        analyzeFixtureDir("lock_order_suppressed");
    EXPECT_EQ(countActive(result.findings), 0u);
    const auto suppressed = std::count_if(
        result.findings.begin(), result.findings.end(),
        [](const Finding& f) {
            return f.suppressed && f.rule == "conc-lock-order";
        });
    EXPECT_EQ(suppressed, 1);
}

// --- persist pack: manifest drift and staleness ----------------------

TEST(AnalyzerPersist, UnbumpedSchemaChangeIsDrift)
{
    Options options;
    options.persist_schema = fixture("persist_drift") / "schema.txt";
    const AnalyzeResult result =
        analyzePaths({fixture("persist_drift")}, options);
    EXPECT_EQ(activeRules(result.findings),
              std::set<std::string>{"persist-schema-drift"});
    const auto hit =
        std::find_if(result.findings.begin(), result.findings.end(),
                     [](const Finding& f) {
                         return f.rule == "persist-schema-drift";
                     });
    ASSERT_NE(hit, result.findings.end());
    // Anchored at the drifted saveState, naming both sequences.
    EXPECT_NE(hit->file.find("counter.cpp"), std::string::npos);
    EXPECT_NE(hit->message.find("[u64 double]"), std::string::npos);
    EXPECT_NE(hit->message.find("[u64]"), std::string::npos);
    EXPECT_NE(hit->message.find("kSnapshotFormatVersion"),
              std::string::npos);
}

TEST(AnalyzerPersist, VersionSkewIsStaleManifest)
{
    Options options;
    options.persist_schema = fixture("persist_stale") / "schema.txt";
    const AnalyzeResult result =
        analyzePaths({fixture("persist_stale")}, options);
    EXPECT_EQ(activeRules(result.findings),
              std::set<std::string>{"persist-manifest-stale"});
    const auto hit =
        std::find_if(result.findings.begin(), result.findings.end(),
                     [](const Finding& f) {
                         return f.rule == "persist-manifest-stale";
                     });
    ASSERT_NE(hit, result.findings.end());
    // Anchored at the manifest's version line, with the fix spelled.
    EXPECT_NE(hit->file.find("schema.txt"), std::string::npos);
    EXPECT_NE(hit->message.find("--write-persist-schema"),
              std::string::npos);
}

TEST(AnalyzerPersist, MatchingManifestIsClean)
{
    // The drift fixture's true schema, rendered by the engine, must
    // round-trip: diffing sources against their own rendered manifest
    // yields nothing.
    Options options;
    const std::vector<SourceFile> sources =
        loadSourceTree({fixture("persist_drift")}, options);
    const SymbolIndex index = buildSymbolIndex(sources, options);
    const std::string manifest = renderPersistSchema(sources, index);
    EXPECT_NE(manifest.find("version 1"), std::string::npos);
    EXPECT_NE(manifest.find("Counter: u64 double"), std::string::npos);

    const fs::path path = fs::temp_directory_path() /
                          "satori_analyzer_schema_roundtrip.txt";
    {
        std::ofstream out(path);
        out << manifest;
    }
    options.persist_schema = path;
    const AnalyzeResult result =
        analyzePaths({fixture("persist_drift")}, options);
    EXPECT_EQ(countActive(result.findings), 0u)
        << "first finding: "
        << (result.findings.empty() ? std::string("none")
                                    : result.findings.front().message);
    fs::remove(path);
}

// --- arch pack: layering over the include graph ----------------------

TEST(AnalyzerArch, ForbiddenEdgeReportsShortestChain)
{
    const AnalyzeResult result = analyzeFixtureDir("arch_forbidden");
    EXPECT_EQ(activeRules(result.findings),
              std::set<std::string>{"arch-forbidden-include"});
    const auto hit =
        std::find_if(result.findings.begin(), result.findings.end(),
                     [](const Finding& f) {
                         return f.rule == "arch-forbidden-include";
                     });
    ASSERT_NE(hit, result.findings.end());
    EXPECT_NE(hit->message.find("`common`"), std::string::npos);
    EXPECT_NE(hit->message.find("`bo`"), std::string::npos);
    EXPECT_NE(hit->message.find("include chain: "), std::string::npos);
    EXPECT_NE(hit->message.find(" -> satori/bo/engine.hpp"),
              std::string::npos);
}

TEST(AnalyzerArch, IncludeCycleIsReportedOnce)
{
    const AnalyzeResult result = analyzeFixtureDir("arch_cycle");
    EXPECT_EQ(activeRules(result.findings),
              std::set<std::string>{"arch-include-cycle"});
    const auto cycles = std::count_if(
        result.findings.begin(), result.findings.end(),
        [](const Finding& f) { return f.rule == "arch-include-cycle"; });
    EXPECT_EQ(cycles, 1) << "each cycle should be reported exactly once";
}

TEST(AnalyzerArch, UnknownSubsystemDirectoryIsFlagged)
{
    const AnalyzeResult result = analyzeFixtureDir("arch_unknown");
    EXPECT_EQ(activeRules(result.findings),
              std::set<std::string>{"arch-unknown-subsystem"});
    EXPECT_NE(result.findings.front().message.find("gadgets"),
              std::string::npos);
}

// --- call graph: qualified resolution of same-named callees ----------

TEST(AnalyzerCallGraph, ReceiverAndOwnerPruneSameNamedMethods)
{
    Options options;
    const std::vector<SourceFile> sources =
        loadSourceTree({fixture("callgraph")}, options);
    const SymbolIndex index = buildSymbolIndex(sources, options);
    const CallGraph graph = buildCallGraph(index);

    const auto find = [&index](const std::string& owner,
                               const std::string& name) {
        for (std::size_t i = 0; i < index.functions.size(); ++i)
            if (index.functions[i].owner == owner &&
                index.functions[i].name == name)
                return i;
        return index.functions.size();
    };
    const auto calls = [&graph](std::size_t caller,
                                std::size_t callee) {
        const auto& out = graph.callees[caller];
        return std::find(out.begin(), out.end(), callee) != out.end();
    };

    const std::size_t tick = find("Alpha", "tick");
    const std::size_t alpha_refresh = find("Alpha", "refresh");
    const std::size_t beta_refresh = find("Beta", "refresh");
    const std::size_t drive = find("", "driveBeta");
    ASSERT_LT(tick, index.functions.size());
    ASSERT_LT(alpha_refresh, index.functions.size());
    ASSERT_LT(beta_refresh, index.functions.size());
    ASSERT_LT(drive, index.functions.size());

    // Unqualified call inside a member: the caller's own class wins
    // over the same-named method on an unrelated class.
    EXPECT_TRUE(calls(tick, alpha_refresh));
    EXPECT_FALSE(calls(tick, beta_refresh));

    // Typed receiver: b.refresh() goes to Beta only.
    EXPECT_TRUE(calls(drive, beta_refresh));
    EXPECT_FALSE(calls(drive, alpha_refresh));

    // Unqualified call in a free function resolves to the free
    // definition, not the same-named member.
    const std::size_t poke = find("", "pokeAudit");
    const std::size_t free_audit = find("", "audit");
    const std::size_t beta_audit = find("Beta", "audit");
    ASSERT_LT(poke, index.functions.size());
    ASSERT_LT(free_audit, index.functions.size());
    ASSERT_LT(beta_audit, index.functions.size());
    EXPECT_TRUE(calls(poke, free_audit));
    EXPECT_FALSE(calls(poke, beta_audit));
}

// --- parallel scan and SARIF rendering -------------------------------

TEST(AnalyzerEngine, ParallelScanMatchesSerialByteForByte)
{
    Options serial;
    serial.jobs = 1;
    Options parallel;
    parallel.jobs = 4;
    const AnalyzeResult a = analyzePaths({fixture("")}, serial);
    const AnalyzeResult b = analyzePaths({fixture("")}, parallel);
    EXPECT_EQ(a.files_scanned, b.files_scanned);
    EXPECT_EQ(renderText(a, "x"), renderText(b, "x"));
    EXPECT_EQ(renderJson(a), renderJson(b));
}

TEST(AnalyzerEngine, RenderSarifEmitsCatalogRulesAndActiveResults)
{
    Options options;
    const AnalyzeResult result =
        analyzePaths({fixture("num_float_eq_bad.cpp")}, options);
    const std::string sarif = renderSarif(result, "satori_analyzer");
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"satori_analyzer\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"num-float-eq\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": "), std::string::npos);
    // Rule metadata for every catalog rule rides along.
    for (const RuleInfo& info : ruleCatalog())
        EXPECT_NE(sarif.find("\"id\": \"" + info.id + "\""),
                  std::string::npos)
            << info.id;
}

TEST(AnalyzerCrossFile, SymbolIndexFindsDefinitionsAndAttributes)
{
    Options options;
    const SourceFile source = loadSourceFile(fixture("taint_bad") /
                                             "emitter.cpp");
    const SymbolIndex index = buildSymbolIndex({source}, options);
    ASSERT_EQ(index.functions.size(), 2u);
    EXPECT_EQ(index.functions[0].name, "sampleValue");
    EXPECT_EQ(index.functions[1].name, "recordSample");
    EXPECT_TRUE(index.functions[1].emits_trace);
    EXPECT_FALSE(index.functions[0].emits_trace);
    EXPECT_TRUE(index.functions[0].nondet_what.empty());
    // Declarations (workerTag, emit) must not index as definitions.
    EXPECT_EQ(index.by_name.count("workerTag"), 0u);
    EXPECT_EQ(index.by_name.count("emit"), 0u);
}

TEST(AnalyzerEngine, ExplainKnowsEveryCatalogRuleAndRejectsUnknown)
{
    for (const RuleInfo& info : ruleCatalog()) {
        std::string text;
        EXPECT_TRUE(explainRule(info.id, text)) << info.id;
        EXPECT_NE(text.find(info.id), std::string::npos);
        EXPECT_NE(text.find("allow("), std::string::npos);
    }
    std::string text;
    EXPECT_FALSE(explainRule("not-a-rule", text));
    EXPECT_NE(text.find("unknown rule id"), std::string::npos);
}

TEST(AnalyzerEngine, CatalogCoversEveryRuleTheFixturesFire)
{
    std::set<std::string> known;
    for (const RuleInfo& info : ruleCatalog())
        known.insert(info.id);
    for (const RuleFixture& rf : kRuleFixtures)
        EXPECT_EQ(known.count(rf.rule), 1u)
            << rf.rule << " missing from ruleCatalog()";
    EXPECT_EQ(known.count("det-taint-reaches-trace"), 1u);
    EXPECT_EQ(known.count("conc-lock-order"), 1u);
    EXPECT_EQ(known.count("persist-schema-drift"), 1u);
    EXPECT_EQ(known.count("persist-manifest-stale"), 1u);
    EXPECT_EQ(known.count("arch-forbidden-include"), 1u);
    EXPECT_EQ(known.count("arch-include-cycle"), 1u);
    EXPECT_EQ(known.count("arch-unknown-subsystem"), 1u);
}

// --- token-helper edge cases (satellite coverage) --------------------

TEST(AnalyzerTokens, RawStringsStripWithoutTerminatingOnQuotes)
{
    bool in_block = false;
    // The embedded quote and backslash must not end the literal.
    EXPECT_EQ(stripCommentsAndStrings(
                  R"x(emit(R"(a " b \ c)") + 1;)x", in_block),
              "emit(R) + 1;");
    EXPECT_FALSE(in_block);
    // Custom delimiter.
    EXPECT_EQ(stripCommentsAndStrings(
                  R"x(f(R"eos(x)" y)eos");)x", in_block),
              "f(R);");
    // An identifier ending in R is not a raw-string prefix.
    EXPECT_EQ(stripCommentsAndStrings("VAR\"text\" + 1", in_block),
              "VAR + 1");
    // Unterminated raw literal strips to end of line.
    EXPECT_EQ(stripCommentsAndStrings("auto s = R\"(open", in_block),
              "auto s = R");
    EXPECT_FALSE(in_block);
}

TEST(AnalyzerTokens, DigitSeparatorsAreNotCharLiterals)
{
    bool in_block = false;
    EXPECT_EQ(stripCommentsAndStrings("int n = 1'000'000;", in_block),
              "int n = 1'000'000;");
    // A real char literal still strips.
    EXPECT_EQ(stripCommentsAndStrings("char c = 'x'; int m = 2'000;",
                                      in_block),
              "char c = ; int m = 2'000;");
}

TEST(AnalyzerTokens, FindMatchingHandlesNestedTemplates)
{
    const std::string s = "foo<bar<int>> v;";
    //                     0123456789012345
    EXPECT_EQ(findMatching(s, 3, '<', '>'), 12u);
    EXPECT_EQ(findMatching(s, 7, '<', '>'), 11u);
    EXPECT_EQ(findMatching("map<K, vec<pair<A,B>>>", 3, '<', '>'), 21u);
    EXPECT_EQ(findMatching("unbalanced<int", 10, '<', '>'),
              std::string::npos);
    EXPECT_EQ(findMatching("x", 5, '<', '>'), std::string::npos);
}

TEST(AnalyzerTokens, PrevAndNextTokenReadQualifiedChainsAndNumbers)
{
    const std::string s = "satori::obs::Tracer tracer(clock);";
    EXPECT_EQ(prevTokenBefore(s, 19), "satori::obs::Tracer");
    EXPECT_EQ(nextTokenAfter(s, 19), "tracer");
    EXPECT_EQ(prevTokenBefore(s, 0), "");
    EXPECT_EQ(nextTokenAfter("  1.5e-3 rest", 0), "1.5e-3");
    EXPECT_EQ(nextTokenAfter("foo<bar<int>>", 3), "<");
    EXPECT_EQ(prevTokenBefore("a + b", 3), "+");
}

TEST(AnalyzerTokens, PreprocessorContinuationsStayPreproc)
{
    // Continuation lines of a #define carry the preproc flag, so a
    // macro body spelling a violation does not index or fire.
    const fs::path dir = fs::temp_directory_path();
    const fs::path path = dir / "satori_analyzer_preproc_test.cpp";
    {
        std::ofstream out(path);
        out << "#define EMIT_TIME(x) \\\n"
            << "    record(time(nullptr), (x))\n"
            << "int keep(int v) { return v; }\n";
    }
    const SourceFile source = loadSourceFile(path);
    ASSERT_EQ(source.lines.size(), 3u);
    EXPECT_TRUE(source.lines[0].preproc);
    EXPECT_TRUE(source.lines[1].preproc);
    EXPECT_FALSE(source.lines[2].preproc);
    Options options;
    const SymbolIndex index = buildSymbolIndex({source}, options);
    ASSERT_EQ(index.functions.size(), 1u);
    EXPECT_EQ(index.functions[0].name, "keep");
    fs::remove(path);
}

TEST(AnalyzerEngine, PackMaskRestrictsRules)
{
    Options options;
    options.packs = kPackHeader;
    const fs::path path = fixture("num_float_eq_bad.cpp");
    const auto findings = analyzeFile(path, options, path);
    EXPECT_EQ(countActive(findings), 0u)
        << "numeric rule fired with only the header pack enabled";
}

TEST(AnalyzerEngine, RenderTextReportsFileLineAndRule)
{
    Options options;
    AnalyzeResult result =
        analyzePaths({fixture("num_float_eq_bad.cpp")}, options);
    EXPECT_EQ(result.files_scanned, 1u);
    const std::string text = renderText(result, "satori_analyzer");
    EXPECT_NE(text.find("num_float_eq_bad.cpp:"), std::string::npos);
    EXPECT_NE(text.find("[num-float-eq]"), std::string::npos);
    const std::string json = renderJson(result);
    EXPECT_NE(json.find("\"rule\": \"num-float-eq\""),
              std::string::npos);
}

} // namespace
