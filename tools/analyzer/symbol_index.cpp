/**
 * @file
 * The project-wide symbol index: every free or member function
 * definition the heuristic scanner can identify, with the attribute
 * lattice (direct nondeterminism use, trace-emit calls, lock
 * acquisitions) the cross-file passes consume, plus the v3 context
 * tables the qualified call graph and the flow/persist packs need:
 * enclosing-class ownership, parameter/local type keys, per-class
 * field types, and [[nodiscard]] declarations.
 *
 * Detection works on the stripped-token model, not a parse tree. A
 * candidate is an identifier chain followed by a balanced `(...)`
 * whose trailing tokens lead to a `{` — via an optional const /
 * noexcept / override / final tail or a constructor init-list — with
 * the token before the name shaped like a return type or a scope
 * boundary. Control-flow keywords are rejected, bodies are skipped
 * once claimed (so statements inside a recognized function are never
 * re-scanned), and anything the heuristic cannot prove is a
 * definition is dropped: false negatives are acceptable, false edges
 * are not.
 */

#include "analyzer/analyzer.hpp"

#include <algorithm>
#include <cctype>

namespace satori_analyzer {

namespace {

/** Keywords that look like `name(...)` but never name a function. */
bool
isNonFunctionKeyword(const std::string& name)
{
    static const std::set<std::string> keywords = {
        "if",       "for",        "while",     "switch",
        "return",   "catch",      "sizeof",    "throw",
        "new",      "delete",     "case",      "do",
        "else",     "defined",    "alignof",   "decltype",
        "noexcept", "static_assert", "assert", "using",
        "typedef",  "co_return",  "co_await",  "co_yield",
        "operator", "requires",   "alignas",   "typeid",
    };
    return keywords.count(name) != 0;
}

/** Last `::` component of an identifier chain. */
std::string
lastComponent(const std::string& chain)
{
    const std::size_t at = chain.rfind("::");
    return at == std::string::npos ? chain : chain.substr(at + 2);
}

/** Second-to-last `::` component ("" when the chain is unscoped). */
std::string
scopeComponent(const std::string& chain)
{
    const std::size_t at = chain.rfind("::");
    if (at == std::string::npos)
        return "";
    return lastComponent(chain.substr(0, at));
}

/** @p chain spells an identifier chain (possibly ~dtor-prefixed). */
bool
isIdentifierChain(const std::string& chain)
{
    if (chain.empty())
        return false;
    const char first = chain[0];
    if (std::isdigit(static_cast<unsigned char>(first)) != 0)
        return false;
    return isIdentChar(first) || first == '~';
}

/**
 * Skip the balanced group opening at @p s[pos] (after whitespace);
 * returns the position after the closer, or npos when the next
 * non-space character is not @p open or the group is unbalanced.
 */
std::size_t
skipGroup(const std::string& s, std::size_t pos, char open, char close)
{
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos])) != 0)
        ++pos;
    if (pos >= s.size() || s[pos] != open)
        return std::string::npos;
    const std::size_t end = findMatching(s, pos, open, close);
    return end == std::string::npos ? std::string::npos : end + 1;
}

/** First non-space position at or after @p pos. */
std::size_t
skipSpace(const std::string& s, std::size_t pos)
{
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos])) != 0)
        ++pos;
    return pos;
}

/**
 * Walk a constructor init-list starting after its `:` and return the
 * position of the body `{`, or npos. Member initializers are
 * `name(args)` or `name{args}` groups separated by commas; the first
 * `{` not directly following an initializer name is the body.
 */
std::size_t
findBodyAfterInitList(const std::string& s, std::size_t pos)
{
    for (int guard = 0; guard < 64; ++guard) {
        pos = skipSpace(s, pos);
        if (pos >= s.size())
            return std::string::npos;
        if (s[pos] == '{')
            return pos;
        const std::string member = nextTokenAfter(s, pos);
        if (!isIdentifierChain(member))
            return std::string::npos;
        pos = skipSpace(s, pos) + member.size();
        std::size_t after = skipGroup(s, pos, '(', ')');
        if (after == std::string::npos)
            after = skipGroup(s, pos, '{', '}');
        if (after == std::string::npos)
            return std::string::npos;
        pos = skipSpace(s, after);
        if (pos < s.size() && s[pos] == ',') {
            ++pos;
            continue;
        }
        if (pos < s.size() && s[pos] == '{')
            return pos;
        return std::string::npos;
    }
    return std::string::npos;
}

/**
 * From the position after a candidate's closing paren, find the body
 * `{` through an optional `const`/`noexcept(...)`/`override`/`final`
 * tail or an init-list. Returns npos when the tokens lead anywhere
 * else (declaration, `= default`, expression).
 */
std::size_t
findBodyOpen(const std::string& s, std::size_t pos)
{
    for (int guard = 0; guard < 16; ++guard) {
        pos = skipSpace(s, pos);
        if (pos >= s.size())
            return std::string::npos;
        const char c = s[pos];
        if (c == '{')
            return pos;
        if (c == ';' || c == '=' || c == ',' || c == ')')
            return std::string::npos;
        if (c == ':') {
            if (pos + 1 < s.size() && s[pos + 1] == ':')
                return std::string::npos;
            return findBodyAfterInitList(s, pos + 1);
        }
        const std::string tok = nextTokenAfter(s, pos);
        if (tok == "const" || tok == "override" || tok == "final" ||
            tok == "mutable" || tok == "&") {
            pos += tok == "&" ? 1 : tok.size();
            continue;
        }
        if (tok == "noexcept") {
            pos += tok.size();
            const std::size_t after = skipGroup(s, pos, '(', ')');
            if (after != std::string::npos)
                pos = after;
            continue;
        }
        return std::string::npos;
    }
    return std::string::npos;
}

/** Tokens allowed directly before a definition's name. */
bool
contextAllowsDefinition(const std::string& prev)
{
    if (prev.empty())
        return true;
    if (isIdentifierChain(prev))
        return !isNonFunctionKeyword(lastComponent(prev));
    return prev == "*" || prev == "&" || prev == ">" || prev == "}" ||
           prev == "{" || prev == ";" || prev == ":" || prev == "~";
}

/** `word` occurs at @p at as a whole word followed by `(`. */
bool
isCallTokenAt(const std::string& s, std::size_t at,
              const std::string& word)
{
    if (at > 0 && (isIdentChar(s[at - 1]) || s[at - 1] == '~'))
        return false;
    const std::size_t end = at + word.size();
    if (end < s.size() && isIdentChar(s[end]))
        return false;
    return skipSpace(s, end) < s.size() && s[skipSpace(s, end)] == '(';
}

/** Any of @p words occurs in @p body as a call token. */
bool
callsAnyOf(const std::string& body, const std::vector<std::string>& words)
{
    for (const std::string& word : words) {
        std::size_t at = 0;
        while ((at = body.find(word, at)) != std::string::npos) {
            if (isCallTokenAt(body, at, word))
                return true;
            at += word.size();
        }
    }
    return false;
}

/**
 * Normalize a declared type spelling to the key the call-graph
 * pruner compares against FunctionDef::owner: strip cv/ref/pointer
 * decorations and template arguments, unwrap the smart-pointer and
 * container-of-one wrappers, and keep the last `::` component
 * (`const std::unique_ptr<core::PartitioningPolicy>&` ->
 * "PartitioningPolicy").
 */
std::string
typeKey(const std::string& type)
{
    std::string t = type;
    for (const char* wrapper :
         {"unique_ptr", "shared_ptr", "optional", "reference_wrapper"}) {
        const std::size_t at = t.find(wrapper);
        if (at == std::string::npos)
            continue;
        const std::size_t open = t.find('<', at);
        if (open == std::string::npos)
            continue;
        const std::size_t close = findMatching(t, open, '<', '>');
        if (close == std::string::npos)
            continue;
        t = t.substr(open + 1, close - open - 1);
        break;
    }
    // Drop leading qualifiers and trailing decorations.
    std::string out;
    std::size_t pos = 0;
    while (pos < t.size()) {
        pos = skipSpace(t, pos);
        const std::string tok = nextTokenAfter(t, pos);
        if (tok.empty())
            break;
        if (tok == "const" || tok == "constexpr" || tok == "static" ||
            tok == "volatile" || tok == "typename" || tok == "inline") {
            pos = skipSpace(t, pos) + tok.size();
            continue;
        }
        if (!isIdentifierChain(tok))
            break;
        out = tok;
        pos = skipSpace(t, pos) + tok.size();
        // Template arguments on the chosen token are not part of the
        // key; stop at the first decoration.
        break;
    }
    if (out.empty())
        return "";
    const std::size_t angle = out.find('<');
    if (angle != std::string::npos)
        out = out.substr(0, angle);
    return lastComponent(out);
}

/** Split @p args on top-level commas (template/paren aware). */
std::vector<std::string>
splitTopLevel(const std::string& args)
{
    std::vector<std::string> out;
    std::string cur;
    int depth = 0;
    for (char c : args) {
        if (c == '(' || c == '<' || c == '[' || c == '{')
            ++depth;
        else if (c == ')' || c == '>' || c == ']' || c == '}')
            --depth;
        if (c == ',' && depth == 0) {
            out.push_back(cur);
            cur.clear();
            continue;
        }
        cur.push_back(c);
    }
    out.push_back(cur);
    return out;
}

/**
 * Parse one parameter declaration into (name, type key). Unnamed or
 * unparsable parameters return an empty name.
 */
std::pair<std::string, std::string>
parseParam(const std::string& decl)
{
    std::string d = decl;
    const std::size_t eq = d.find('=');
    if (eq != std::string::npos)
        d = d.substr(0, eq);
    // The name is the last identifier token; everything before it is
    // the type.
    std::size_t end = d.size();
    while (end > 0 &&
           std::isspace(static_cast<unsigned char>(d[end - 1])) != 0)
        --end;
    std::size_t begin = end;
    while (begin > 0 && isIdentChar(d[begin - 1]))
        --begin;
    if (begin == end)
        return {"", ""};
    const std::string name = d.substr(begin, end - begin);
    if (!isIdentifierChain(name) || isNonFunctionKeyword(name) ||
        std::isdigit(static_cast<unsigned char>(name[0])) != 0)
        return {"", ""};
    const std::string type = d.substr(0, begin);
    if (type.find_first_not_of(" \t\n") == std::string::npos)
        return {"", ""}; // a bare type with no name, e.g. `(void)`.
    return {name, typeKey(type)};
}

/** One class/struct body interval in the joined stripped text. */
struct ClassScope
{
    std::string name;
    std::size_t open = 0;  ///< Offset of the body `{`.
    std::size_t close = 0; ///< Offset of the matching `}`.
};

/**
 * Find every `class X ... { ... }` / `struct X ... { ... }` interval
 * (enum class and forward declarations excluded). Intervals nest;
 * innermostClass() resolves a position to the tightest one.
 */
std::vector<ClassScope>
collectClassScopes(const std::string& all)
{
    std::vector<ClassScope> scopes;
    for (const char* kw : {"class", "struct"}) {
        const std::string word(kw);
        std::size_t at = 0;
        while ((at = all.find(word, at)) != std::string::npos) {
            const std::size_t start = at;
            at += word.size();
            if ((start > 0 && isIdentChar(all[start - 1])) ||
                (at < all.size() && isIdentChar(all[at])))
                continue;
            const std::string prev = prevTokenBefore(all, start);
            if (prev == "enum" || prev == "friend")
                continue;
            std::size_t pos = skipSpace(all, at);
            const std::string name = nextTokenAfter(all, pos);
            if (!isIdentifierChain(name) || name[0] == '~')
                continue;
            pos += name.size();
            // Walk an optional `final` / base clause to the body `{`;
            // a `;` first means forward declaration.
            std::size_t body = std::string::npos;
            for (int guard = 0; guard < 16; ++guard) {
                pos = skipSpace(all, pos);
                if (pos >= all.size())
                    break;
                const char c = all[pos];
                if (c == '{') {
                    body = pos;
                    break;
                }
                if (c == ';' || c == '(' || c == ')' || c == '=' ||
                    c == '*' || c == '&' || c == '>')
                    break;
                if (c == ':') {
                    // Base clause: scan to the body `{` at depth 0.
                    int depth = 0;
                    std::size_t p = pos + 1;
                    for (; p < all.size(); ++p) {
                        const char b = all[p];
                        if (b == '<' || b == '(')
                            ++depth;
                        else if (b == '>' || b == ')')
                            --depth;
                        else if (b == '{' && depth == 0) {
                            body = p;
                            break;
                        } else if (b == ';' && depth == 0)
                            break;
                    }
                    break;
                }
                const std::string tok = nextTokenAfter(all, pos);
                if (tok != "final" && !isIdentifierChain(tok))
                    break;
                pos += tok.size();
            }
            if (body == std::string::npos)
                continue;
            const std::size_t close = findMatching(all, body, '{', '}');
            if (close == std::string::npos)
                continue;
            scopes.push_back({lastComponent(name), body, close});
        }
    }
    return scopes;
}

/** Innermost class scope containing @p pos ("" when at file scope). */
std::string
innermostClass(const std::vector<ClassScope>& scopes, std::size_t pos)
{
    const ClassScope* best = nullptr;
    for (const ClassScope& s : scopes)
        if (s.open < pos && pos < s.close &&
            (best == nullptr || s.open > best->open))
            best = &s;
    return best == nullptr ? "" : best->name;
}

/**
 * Harvest member-field declarations of every class: statements at the
 * class body's top brace level of the form `Type name_;` (with
 * optional initializer). The trailing-underscore convention filters
 * using-aliases, friend declarations, and constants.
 */
void
collectClassFields(
    const std::string& all, const std::vector<ClassScope>& scopes,
    std::map<std::string, std::map<std::string, std::string>>& fields)
{
    for (const ClassScope& scope : scopes) {
        std::size_t pos = scope.open + 1;
        std::string stmt;
        while (pos < scope.close) {
            const char c = all[pos];
            if (c == '{' || c == '(') {
                const std::size_t end = findMatching(
                    all, pos, c, c == '{' ? '}' : ')');
                if (end == std::string::npos || end > scope.close)
                    break;
                // Nested groups (member bodies, initializers,
                // parameter lists) never declare fields; a parameter
                // list still marks the statement as a function.
                if (c == '(')
                    stmt.push_back('(');
                pos = end + 1;
                continue;
            }
            if (c == ';') {
                // Drop anything up to a trailing access specifier so
                // `public: std::size_t n_` parses as a plain field.
                for (const char* spec :
                     {"public:", "private:", "protected:"}) {
                    const std::size_t at = stmt.rfind(spec);
                    if (at != std::string::npos)
                        stmt = stmt.substr(at + std::string(spec).size());
                }
                auto [name, type] = parseParam(stmt);
                if (!name.empty() && name.size() > 1 &&
                    name.back() == '_' && !type.empty() &&
                    stmt.find('(') == std::string::npos &&
                    stmt.find("using") == std::string::npos)
                    fields[scope.name][name] = type;
                stmt.clear();
                ++pos;
                continue;
            }
            stmt.push_back(c);
            ++pos;
        }
    }
}

/**
 * Harvest local-variable declarations from a function body into
 * @p types: `Type name = ...`, `Type name;`, `Type name(...)`,
 * `Type name{...}`, and range-for bindings. Heuristic line-based
 * matching; unresolvable lines contribute nothing.
 */
void
collectLocalTypes(const std::string& body,
                  std::map<std::string, std::string>& types)
{
    std::size_t line_start = 0;
    while (line_start < body.size()) {
        std::size_t line_end = body.find('\n', line_start);
        if (line_end == std::string::npos)
            line_end = body.size();
        std::string line =
            body.substr(line_start, line_end - line_start);
        line_start = line_end + 1;

        // Range-for introduces its binding between '(' and ':'.
        const std::size_t for_at = line.find("for");
        if (for_at != std::string::npos &&
            isCallTokenAt(line, for_at, "for")) {
            const std::size_t open = line.find('(', for_at);
            const std::size_t colon =
                open == std::string::npos ? std::string::npos
                                          : line.find(':', open);
            if (colon != std::string::npos &&
                (colon + 1 >= line.size() || line[colon + 1] != ':')) {
                line = line.substr(open + 1, colon - open - 1);
            } else if (open != std::string::npos) {
                line = line.substr(open + 1);
            } else {
                continue;
            }
        }

        std::size_t pos = skipSpace(line, 0);
        const std::string first = nextTokenAfter(line, pos);
        if (!isIdentifierChain(first) || isNonFunctionKeyword(first) ||
            first == "else" || first == "public" || first == "private")
            continue;
        pos = skipSpace(line, pos) + first.size();
        std::string type = first;
        if (type == "const" || type == "constexpr" || type == "auto" ||
            type == "static") {
            const std::string second = nextTokenAfter(line, pos);
            if (isIdentifierChain(second)) {
                type = second;
                pos = skipSpace(line, pos) + second.size();
            }
        }
        pos = skipSpace(line, pos);
        if (pos < line.size() && line[pos] == '<') {
            const std::size_t close = findMatching(line, pos, '<', '>');
            if (close == std::string::npos)
                continue;
            pos = close + 1;
        }
        while (pos < line.size() &&
               (line[pos] == '&' || line[pos] == '*' ||
                std::isspace(static_cast<unsigned char>(line[pos])) !=
                    0))
            ++pos;
        const std::string name = nextTokenAfter(line, pos);
        if (!isIdentifierChain(name) || name.find("::") !=
                                            std::string::npos ||
            isNonFunctionKeyword(name))
            continue;
        pos = skipSpace(line, pos) + name.size();
        pos = skipSpace(line, pos);
        if (pos >= line.size())
            continue;
        const char next = line[pos];
        const bool declares =
            next == '=' ? (pos + 1 >= line.size() || line[pos + 1] != '=')
                        : (next == ';' || next == '{' || next == '(' ||
                           next == ':');
        if (!declares)
            continue;
        types.emplace(name, typeKey(type));
    }
}

/**
 * Collect call sites from @p body with whatever qualification the
 * token stream offers (unique by name+qualifier+receiver).
 */
void
collectCallees(const std::string& body, std::vector<CalleeRef>& refs,
               std::vector<std::string>& names)
{
    std::set<std::string> seen_names;
    std::set<std::string> seen_refs;
    std::size_t at = 0;
    while ((at = body.find('(', at)) != std::string::npos) {
        const std::size_t paren = at;
        ++at;
        const std::string chain = prevTokenBefore(body, paren);
        if (!isIdentifierChain(chain) || chain[0] == '~')
            continue;
        const std::string name = lastComponent(chain);
        if (isNonFunctionKeyword(name))
            continue;
        CalleeRef ref;
        ref.name = name;
        ref.qualifier = scopeComponent(chain);
        if (ref.qualifier.empty()) {
            // Receiver: the token before `.name(` or `->name(`.
            std::size_t start = paren;
            while (start > 0 &&
                   std::isspace(static_cast<unsigned char>(
                       body[start - 1])) != 0)
                --start;
            start -= chain.size();
            if (start > 0 && body[start - 1] == '.') {
                const std::string recv =
                    prevTokenBefore(body, start - 1);
                if (isIdentifierChain(recv))
                    ref.receiver = recv;
            } else if (start > 1 && body[start - 1] == '>' &&
                       body[start - 2] == '-') {
                const std::string recv =
                    prevTokenBefore(body, start - 2);
                if (isIdentifierChain(recv))
                    ref.receiver = recv;
            }
        }
        if (seen_names.insert(name).second)
            names.push_back(name);
        if (seen_refs
                .insert(ref.name + "|" + ref.qualifier + "|" +
                        ref.receiver)
                .second)
            refs.push_back(std::move(ref));
    }
}

/** @p s with all whitespace removed (lock-expression normalization). */
std::string
withoutSpace(const std::string& s)
{
    std::string out;
    for (char c : s)
        if (std::isspace(static_cast<unsigned char>(c)) == 0)
            out.push_back(c);
    return out;
}

/** Tag arguments that are lock policies, not lock expressions. */
bool
isLockPolicyArg(const std::string& arg)
{
    return arg.find("adopt_lock") != std::string::npos ||
           arg.find("defer_lock") != std::string::npos ||
           arg.find("try_to_lock") != std::string::npos;
}

/**
 * Locks acquired in @p body, in source order: RAII guard constructor
 * arguments plus `expr.lock()` receivers, as normalized expressions.
 */
std::vector<std::string>
collectLocks(const std::string& body)
{
    struct GuardKind
    {
        const char* word;
        bool all_args; ///< scoped_lock takes several mutexes.
    };
    static const GuardKind kGuards[] = {
        {"MutexLock", false},
        {"lock_guard", false},
        {"unique_lock", false},
        {"scoped_lock", true},
    };
    std::vector<std::pair<std::size_t, std::string>> found;
    for (const GuardKind& guard : kGuards) {
        const std::string word(guard.word);
        std::size_t at = 0;
        while ((at = body.find(word, at)) != std::string::npos) {
            const std::size_t start = at;
            at += word.size();
            if ((start > 0 && isIdentChar(body[start - 1])) ||
                (at < body.size() && isIdentChar(body[at])))
                continue;
            std::size_t pos = skipSpace(body, at);
            if (pos < body.size() && body[pos] == '<') {
                const std::size_t close =
                    findMatching(body, pos, '<', '>');
                if (close == std::string::npos)
                    continue;
                pos = skipSpace(body, close + 1);
            }
            const std::string var = nextTokenAfter(body, pos);
            if (!isIdentifierChain(var))
                continue;
            pos = skipSpace(body, pos) + var.size();
            pos = skipSpace(body, pos);
            if (pos >= body.size() || body[pos] != '(')
                continue;
            const std::size_t close =
                findMatching(body, pos, '(', ')');
            if (close == std::string::npos)
                continue;
            const std::vector<std::string> raw_args =
                splitTopLevel(body.substr(pos + 1, close - pos - 1));
            for (std::size_t i = 0; i < raw_args.size(); ++i) {
                const std::string arg = withoutSpace(raw_args[i]);
                if (arg.empty() || isLockPolicyArg(arg))
                    continue;
                found.emplace_back(start, arg);
                if (!guard.all_args)
                    break;
            }
        }
    }
    // Manual acquisition: `expr.lock()` — the receiver is the lock.
    std::size_t at = 0;
    while ((at = body.find(".lock()", at)) != std::string::npos) {
        const std::string recv = prevTokenBefore(body, at);
        const std::size_t start = at;
        at += 7;
        if (isIdentifierChain(recv))
            found.emplace_back(start, recv);
    }
    // Source order across all acquisition kinds.
    std::sort(found.begin(), found.end());
    std::vector<std::string> locks;
    locks.reserve(found.size());
    for (auto& [offset, expr] : found)
        locks.push_back(std::move(expr));
    return locks;
}

/** Direct nondeterminism source in @p body, or "" when clean. */
std::string
describeNondetSource(const std::string& body)
{
    if (body.find("::now") != std::string::npos &&
        body.find("_clock") != std::string::npos)
        return "a chrono clock read";
    static const char* const kClockCalls[] = {
        "time",   "clock",     "gettimeofday",
        "gmtime", "localtime", "clock_gettime",
    };
    for (const char* call : kClockCalls) {
        const std::string name(call);
        std::size_t at = 0;
        while ((at = body.find(name, at)) != std::string::npos) {
            if (isCallTokenAt(body, at, name))
                return "a wall-clock call `" + name + "(`";
            at += name.size();
        }
    }
    if (body.find("random_device") != std::string::npos)
        return "std::random_device (OS entropy)";
    if (body.find("get_id") != std::string::npos &&
        body.find("this_thread") != std::string::npos)
        return "std::this_thread::get_id (thread identity)";
    if (body.find("thread::id") != std::string::npos)
        return "std::thread::id formatting (thread identity)";
    std::size_t at = body.find("reinterpret_cast");
    if (at != std::string::npos) {
        const std::size_t open = body.find('<', at);
        const std::size_t close =
            open == std::string::npos
                ? std::string::npos
                : findMatching(body, open, '<', '>');
        if (close != std::string::npos) {
            const std::string target =
                body.substr(open, close - open + 1);
            if (target.find("uintptr") != std::string::npos ||
                target.find("intptr") != std::string::npos ||
                target.find("size_t") != std::string::npos)
                return "a pointer-value cast (ASLR-dependent bits)";
        }
    }
    return "";
}

bool
pathAllowlisted(const std::string& display, const Options& options)
{
    for (const std::string& allow : options.wallclock_allow)
        if (display.find(allow) != std::string::npos)
            return true;
    return false;
}

/** Index every definition the heuristic can prove in @p file. */
void
indexFile(const SourceFile& file, const Options& options,
          SymbolIndex& index)
{
    // Join the stripped code ('\n'-separated, preprocessor lines
    // blanked) and keep line starts for offset -> line mapping.
    std::string all;
    std::vector<std::size_t> line_starts;
    for (const SourceLine& line : file.lines) {
        line_starts.push_back(all.size());
        if (!line.preproc)
            all += line.code;
        all.push_back('\n');
    }
    const auto lineAt = [&line_starts](std::size_t offset) {
        std::size_t lo = 0;
        std::size_t hi = line_starts.size();
        while (lo + 1 < hi) {
            const std::size_t mid = (lo + hi) / 2;
            (line_starts[mid] <= offset ? lo : hi) = mid;
        }
        return lo; // 0-based
    };

    const bool allowlisted = pathAllowlisted(file.display, options);
    const std::vector<ClassScope> scopes = collectClassScopes(all);
    collectClassFields(all, scopes, index.class_fields);

    std::size_t pos = 0;
    while ((pos = all.find('(', pos)) != std::string::npos) {
        const std::size_t paren = pos;
        ++pos;
        const std::string chain = prevTokenBefore(all, paren);
        if (!isIdentifierChain(chain))
            continue;
        const std::string name = lastComponent(chain);
        if (isNonFunctionKeyword(name))
            continue;
        // Locate the chain's start to inspect the token before it.
        std::size_t name_end = paren;
        while (name_end > 0 &&
               std::isspace(
                   static_cast<unsigned char>(all[name_end - 1])) != 0)
            --name_end;
        const std::size_t name_start = name_end - chain.size();
        if (!contextAllowsDefinition(prevTokenBefore(all, name_start)))
            continue;
        const std::size_t close = findMatching(all, paren, '(', ')');
        if (close == std::string::npos ||
            lineAt(close) - lineAt(paren) > 40)
            continue;
        const std::size_t body_open = findBodyOpen(all, close + 1);
        if (body_open == std::string::npos)
            continue;
        const std::size_t body_close =
            findMatching(all, body_open, '{', '}');
        if (body_close == std::string::npos)
            continue;

        FunctionDef def;
        def.name = name[0] == '~' ? name.substr(1) : name;
        def.qualified = chain;
        def.display = file.display;
        def.line = static_cast<int>(lineAt(name_start)) + 1;
        def.body_line = static_cast<int>(lineAt(body_open + 1)) + 1;
        def.body =
            all.substr(body_open + 1, body_close - body_open - 1);
        def.params = all.substr(paren + 1, close - paren - 1);
        def.owner = scopeComponent(chain);
        if (def.owner.empty())
            def.owner = innermostClass(scopes, name_start);
        for (const std::string& param : splitTopLevel(def.params)) {
            auto [pname, ptype] = parseParam(param);
            def.param_names.push_back(pname);
            if (!pname.empty())
                def.var_types.emplace(pname, ptype);
        }
        collectLocalTypes(def.body, def.var_types);
        collectCallees(def.body, def.callees, def.callee_names);
        def.locks_acquired = collectLocks(def.body);
        def.allowlisted = allowlisted;
        def.emits_trace =
            callsAnyOf(def.body, options.trace_emit_calls);
        def.nondet_what = describeNondetSource(def.body);
        index.functions.push_back(std::move(def));

        pos = body_close + 1; // never rescan inside a claimed body
    }
}

} // namespace

SymbolIndex
buildSymbolIndex(const std::vector<SourceFile>& files,
                 const Options& options)
{
    SymbolIndex index;
    for (const SourceFile& file : files)
        indexFile(file, options, index);
    for (std::size_t i = 0; i < index.functions.size(); ++i)
        index.by_name[index.functions[i].name].push_back(i);
    return index;
}

} // namespace satori_analyzer
