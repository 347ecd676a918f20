/**
 * @file
 * The flow pack: CFG-based intra-procedural dataflow rules.
 *
 *   flow-use-after-move      - a local or parameter read on some path
 *                              after std::move(x) consumed it, with no
 *                              reassignment in between. The moved-set
 *                              is propagated to a fixpoint over the
 *                              CFG, so loop back-edges (move in the
 *                              body, use at the top) are caught.
 *   flow-dead-after-fatal    - a statement only reachable by falling
 *                              through SATORI_FATAL / SATORI_PANIC /
 *                              abort / exit, which never return.
 *
 * Both walk the functions indexed from one file, so findings anchor
 * to real lines of that file. A discarded [[nodiscard]] result is
 * the compiler's job (-Wunused-result, an error under -Werror).
 */

#include "analyzer/analyzer.hpp"

#include <algorithm>
#include <cctype>

namespace satori_analyzer {

namespace {

/** First position of whole-word @p word in @p s, or npos. */
std::size_t
findWord(const std::string& s, const std::string& word,
         std::size_t from = 0)
{
    std::size_t at = from;
    while ((at = s.find(word, at)) != std::string::npos) {
        const bool left_ok = at == 0 || !isIdentChar(s[at - 1]);
        const std::size_t end = at + word.size();
        const bool right_ok = end >= s.size() || !isIdentChar(s[end]);
        if (left_ok && right_ok)
            return at;
        at = end;
    }
    return std::string::npos;
}

/** Like findWord, but a member access `x.var` / `x->var` does not
 *  count: that is a use of `x`, not of the variable `var`. */
std::size_t
findVarUse(const std::string& s, const std::string& var,
           std::size_t from = 0)
{
    std::size_t at = from;
    while ((at = findWord(s, var, at)) != std::string::npos) {
        const bool member =
            (at >= 1 && s[at - 1] == '.') ||
            (at >= 2 && s[at - 2] == '-' && s[at - 1] == '>');
        if (!member)
            return at;
        at += var.size();
    }
    return std::string::npos;
}

/** @p stmt contains `std::move(var)` (or `move(var)`) consuming the
 *  whole variable. */
bool
movesVar(const std::string& stmt, const std::string& var)
{
    std::size_t at = 0;
    while ((at = findWord(stmt, "move", at)) != std::string::npos) {
        std::size_t pos = at + 4;
        at = pos;
        while (pos < stmt.size() &&
               std::isspace(static_cast<unsigned char>(stmt[pos])) != 0)
            ++pos;
        if (pos >= stmt.size() || stmt[pos] != '(')
            continue;
        const std::size_t close = findMatching(stmt, pos, '(', ')');
        if (close == std::string::npos)
            continue;
        std::string arg = stmt.substr(pos + 1, close - pos - 1);
        std::size_t b = arg.find_first_not_of(" \t\n");
        std::size_t e = arg.find_last_not_of(" \t\n");
        if (b == std::string::npos)
            continue;
        if (arg.substr(b, e - b + 1) == var)
            return true;
    }
    return false;
}

/**
 * @p stmt gives @p var a fresh value: assignment to it, a clearing /
 * resetting member call, std::swap, or its (re)declaration. A killed
 * variable may be used again.
 */
bool
reassignsVar(const std::string& stmt, const std::string& var)
{
    std::size_t at = 0;
    while ((at = findVarUse(stmt, var, at)) != std::string::npos) {
        std::size_t pos = at + var.size();
        at = pos;
        while (pos < stmt.size() &&
               std::isspace(static_cast<unsigned char>(stmt[pos])) != 0)
            ++pos;
        if (pos < stmt.size() && stmt[pos] == '=' &&
            (pos + 1 >= stmt.size() || stmt[pos + 1] != '='))
            return true;
        // Members that re-establish a usable state.
        if (pos < stmt.size() && stmt[pos] == '.') {
            const std::string member = nextTokenAfter(stmt, pos + 1);
            if (member == "clear" || member == "reset" ||
                member == "assign" || member == "resize" ||
                member == "emplace")
                return true;
        }
    }
    // std::swap(var, other) refills the moved-from side.
    const std::size_t swap_at = findWord(stmt, "swap");
    if (swap_at != std::string::npos &&
        findVarUse(stmt, var) != std::string::npos)
        return true;
    return false;
}

/** @p stmt declares @p var (shadow/initialization heuristics). */
bool
declaresVar(const std::string& stmt, const std::string& var)
{
    const std::size_t at = findWord(stmt, var);
    if (at == std::string::npos || at == 0)
        return false;
    // A declaration has a type token directly before the name.
    const std::string prev = prevTokenBefore(stmt, at);
    if (prev.empty())
        return false;
    if (prev == "&" || prev == "*" || prev == ">")
        return true;
    if (!isIdentChar(prev.back()))
        return false;
    static const std::set<std::string> non_types = {
        "return", "delete", "throw", "in", "out",
    };
    return non_types.count(prev) == 0 && prev != var;
}

void
runUseAfterMove(const FunctionDef& def, const Cfg& cfg,
                std::vector<Finding>& findings)
{
    // Candidate variables: parameters and locals with simple names.
    std::set<std::string> vars;
    for (const auto& [name, type] : def.var_types)
        if (!name.empty() && name != "this")
            vars.insert(name);
    for (const std::string& p : def.param_names)
        if (!p.empty())
            vars.insert(p);
    if (vars.empty() || cfg.nodes.empty())
        return;

    for (const std::string& var : vars) {
        if (!movesVar(def.body, var))
            continue;
        // Skip shadowed names: two declarations make the flat
        // name-keyed analysis lie.
        std::size_t decls = 0;
        for (const CfgNode& node : cfg.nodes)
            if (declaresVar(node.text, var))
                ++decls;
        if (decls > 1)
            continue;

        const std::size_t n = cfg.nodes.size();
        // moved_in[i]: the move reaches node i's entry on some path.
        std::vector<char> moved_in(n, 0);
        std::vector<char> moved_out(n, 0);
        int move_line = 0;
        bool changed = true;
        while (changed) {
            changed = false;
            for (std::size_t i = 0; i < n; ++i) {
                const CfgNode& node = cfg.nodes[i];
                char in = moved_in[i];
                char out = in;
                // A declaration re-creates the object each loop
                // iteration, so it kills like a reassignment.
                if (reassignsVar(node.text, var) ||
                    declaresVar(node.text, var))
                    out = 0;
                if (movesVar(node.text, var)) {
                    out = 1;
                    if (move_line == 0)
                        move_line = node.line;
                }
                if (out != moved_out[i]) {
                    moved_out[i] = out;
                    changed = true;
                }
                for (std::size_t s : node.succ) {
                    if (out != 0 && moved_in[s] == 0) {
                        moved_in[s] = 1;
                        changed = true;
                    }
                }
            }
        }

        for (std::size_t i = 0; i < n; ++i) {
            const CfgNode& node = cfg.nodes[i];
            if (moved_in[i] == 0)
                continue;
            if (findVarUse(node.text, var) == std::string::npos)
                continue;
            // A kill statement may touch the moved-from value
            // (clear() after move is the sanctioned reuse idiom).
            if (reassignsVar(node.text, var) ||
                declaresVar(node.text, var))
                continue;
            // The statement performing a (re)move is reported only
            // when the value already arrived moved.
            Finding f;
            f.file = def.display;
            f.line = node.line;
            f.rule = "flow-use-after-move";
            f.message = "`" + var + "` is used here after std::move" +
                        (move_line != 0 ? " (moved at line " +
                                              std::to_string(move_line) +
                                              ")"
                                        : "") +
                        " in " + def.qualified +
                        "; reassign it first or stop moving it";
            findings.push_back(std::move(f));
            break; // one report per variable per function
        }
    }
}

/** Calls that never return: a following statement is unreachable. */
bool
isFatalStatement(const std::string& text)
{
    static const char* const kFatal[] = {
        "SATORI_FATAL", "SATORI_PANIC", "throwFatal", "throwPanic",
        "abort",        "exit",         "_Exit",      "terminate",
    };
    for (const char* name : kFatal) {
        const std::size_t at = findWord(text, name);
        if (at == std::string::npos)
            continue;
        // The call must be the whole statement (a fatal inside a
        // condition or `return exitCode()` does not end control
        // flow here).
        std::size_t begin = at;
        while (begin > 0 && (isIdentChar(text[begin - 1]) ||
                             text[begin - 1] == ':'))
            --begin;
        if (begin == 0)
            return true;
    }
    return false;
}

void
runDeadAfterFatal(const FunctionDef& def, const Cfg& cfg,
                  std::vector<Finding>& findings)
{
    const std::size_t n = cfg.nodes.size();
    if (n == 0)
        return;
    std::vector<char> fatal(n, 0);
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
        if (isFatalStatement(cfg.nodes[i].text)) {
            fatal[i] = 1;
            any = true;
        }
    }
    if (!any)
        return;
    // Reachability from entry with fatal nodes as sinks.
    std::vector<char> reach(n, 0);
    std::vector<std::size_t> stack = {0};
    reach[0] = 1;
    while (!stack.empty()) {
        const std::size_t i = stack.back();
        stack.pop_back();
        if (fatal[i] != 0)
            continue;
        for (std::size_t s : cfg.nodes[i].succ) {
            if (reach[s] == 0) {
                reach[s] = 1;
                stack.push_back(s);
            }
        }
    }
    // Report each statement a fatal node would fall into that no live
    // path reaches.
    std::set<std::size_t> reported;
    for (std::size_t i = 0; i < n; ++i) {
        if (fatal[i] == 0 || reach[i] == 0)
            continue;
        for (std::size_t s : cfg.nodes[i].succ) {
            if (reach[s] != 0 || !reported.insert(s).second)
                continue;
            Finding f;
            f.file = def.display;
            f.line = cfg.nodes[s].line;
            f.rule = "flow-dead-after-fatal";
            f.message =
                "statement is unreachable: the preceding `" +
                cfg.nodes[i].text.substr(
                    0, cfg.nodes[i].text.find('(')) +
                "` call never returns (in " + def.qualified + ")";
            findings.push_back(std::move(f));
        }
    }
}

} // namespace

void
runFlowPack(const SourceFile& file, const SymbolIndex& index,
            std::vector<Finding>& findings)
{
    for (const FunctionDef& def : index.functions) {
        if (def.display != file.display)
            continue;
        const Cfg cfg = buildCfg(def);
        runUseAfterMove(def, cfg, findings);
        runDeadAfterFatal(def, cfg, findings);
    }
}

} // namespace satori_analyzer
