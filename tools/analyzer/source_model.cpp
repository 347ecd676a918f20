/**
 * @file
 * Source loading, comment/string stripping, token helpers, and the
 * derived per-file identifier tables shared by every rule pass.
 */

#include "analyzer/analyzer.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>

namespace fs = std::filesystem;

namespace satori_analyzer {

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string
stripCommentsAndStrings(const std::string& line, bool& in_block)
{
    std::string out;
    out.reserve(line.size());
    for (std::size_t i = 0; i < line.size(); ++i) {
        if (in_block) {
            if (line[i] == '*' && i + 1 < line.size() &&
                line[i + 1] == '/') {
                in_block = false;
                ++i;
            }
            continue;
        }
        if (line[i] == '/' && i + 1 < line.size()) {
            if (line[i + 1] == '/')
                break;
            if (line[i + 1] == '*') {
                in_block = true;
                ++i;
                continue;
            }
        }
        if (line[i] == '"' && i > 0 && line[i - 1] == 'R' &&
            (i < 2 || !isIdentChar(line[i - 2]) ||
             line[i - 2] == 'u' || line[i - 2] == 'L' ||
             line[i - 2] == '8')) {
            // Raw string literal R"delim(...)delim": no escapes, and
            // embedded quotes do not terminate it. Spanning lines is
            // not supported; an unterminated raw literal strips to
            // end of line.
            const std::size_t open = line.find('(', i + 1);
            if (open == std::string::npos)
                break;
            // Built piecewise: the operator+ chain trips a GCC 12
            // -Wrestrict false positive under -Werror.
            std::string closer;
            closer.reserve(open - i + 1);
            closer.push_back(')');
            closer.append(line, i + 1, open - i - 1);
            closer.push_back('"');
            const std::size_t end = line.find(closer, open + 1);
            if (end == std::string::npos)
                break;
            i = end + closer.size() - 1;
            continue;
        }
        if (line[i] == '"' ||
            (line[i] == '\'' &&
             (i == 0 || !isIdentChar(line[i - 1])))) {
            const char quote = line[i];
            ++i;
            while (i < line.size()) {
                if (line[i] == '\\')
                    ++i;
                else if (line[i] == quote)
                    break;
                ++i;
            }
            continue;
        }
        out.push_back(line[i]);
    }
    return out;
}

bool
containsWord(const std::string& s, const std::string& word)
{
    std::size_t at = 0;
    while ((at = s.find(word, at)) != std::string::npos) {
        const bool left_ok = at == 0 || !isIdentChar(s[at - 1]);
        const std::size_t end = at + word.size();
        const bool right_ok = end >= s.size() || !isIdentChar(s[end]);
        if (left_ok && right_ok)
            return true;
        at = end;
    }
    return false;
}

namespace {

/** True for characters that extend a numeric literal (1.5e-3f). */
bool
isNumericChar(char c)
{
    return std::isdigit(static_cast<unsigned char>(c)) != 0 ||
           c == '.' || c == 'e' || c == 'E' || c == 'f' || c == 'F' ||
           c == 'x' || c == 'u' || c == 'U' || c == 'l' || c == 'L';
}

} // namespace

std::string
prevTokenBefore(const std::string& s, std::size_t pos)
{
    std::size_t i = std::min(pos, s.size());
    while (i > 0 &&
           std::isspace(static_cast<unsigned char>(s[i - 1])) != 0)
        --i;
    if (i == 0)
        return "";
    std::size_t end = i;
    if (isIdentChar(s[i - 1])) {
        // Identifier chain, possibly qualified: abc::def::ghi — or a
        // numeric literal; both read the same way backwards.
        while (i > 0 &&
               (isIdentChar(s[i - 1]) ||
                (s[i - 1] == ':' && i > 1 && s[i - 2] == ':') ||
                (s[i - 1] == ':' && i < end && s[i] == ':')))
            --i;
        return s.substr(i, end - i);
    }
    return s.substr(i - 1, 1);
}

std::string
nextTokenAfter(const std::string& s, std::size_t pos)
{
    std::size_t i = pos;
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i])) != 0)
        ++i;
    if (i >= s.size())
        return "";
    const std::size_t start = i;
    if (isIdentChar(s[i])) {
        if (std::isdigit(static_cast<unsigned char>(s[i])) != 0) {
            while (i < s.size() &&
                   (isNumericChar(s[i]) ||
                    ((s[i] == '+' || s[i] == '-') && i > start &&
                     (s[i - 1] == 'e' || s[i - 1] == 'E'))))
                ++i;
        } else {
            while (i < s.size() &&
                   (isIdentChar(s[i]) ||
                    (s[i] == ':' && i + 1 < s.size() &&
                     s[i + 1] == ':') ||
                    (s[i] == ':' && i > start && s[i - 1] == ':')))
                ++i;
        }
        return s.substr(start, i - start);
    }
    if (s[i] == '.' && i + 1 < s.size() &&
        std::isdigit(static_cast<unsigned char>(s[i + 1])) != 0) {
        while (i < s.size() && isNumericChar(s[i]))
            ++i;
        return s.substr(start, i - start);
    }
    return s.substr(start, 1);
}

std::size_t
findMatching(const std::string& s, std::size_t pos, char open, char close)
{
    if (pos >= s.size() || s[pos] != open)
        return std::string::npos;
    int depth = 0;
    for (std::size_t i = pos; i < s.size(); ++i) {
        if (s[i] == open)
            ++depth;
        else if (s[i] == close && --depth == 0)
            return i;
    }
    return std::string::npos;
}

bool
isFloatLiteral(const std::string& token)
{
    if (token.empty())
        return false;
    bool digit = false;
    bool dot_or_exp = false;
    for (std::size_t i = 0; i < token.size(); ++i) {
        const char c = token[i];
        if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
            digit = true;
        } else if (c == '.') {
            dot_or_exp = true;
        } else if ((c == 'e' || c == 'E') && digit) {
            dot_or_exp = true;
        } else if (c == '+' || c == '-') {
            if (i == 0 || (token[i - 1] != 'e' && token[i - 1] != 'E'))
                return false;
        } else if ((c == 'f' || c == 'F') && i + 1 == token.size()) {
            dot_or_exp = true;
        } else {
            return false;
        }
    }
    return digit && dot_or_exp;
}

namespace {

/**
 * Free functions from satori/common/math.hpp and friends that return
 * double: calls to these are floating expressions even though the
 * declaring header is a different file.
 */
const std::set<std::string>&
knownDoubleApis()
{
    static const std::set<std::string> apis = {
        "normalPdf",     "normalCdf",     "clamp",
        "mean",          "stddev",        "geomean",
        "harmonicMean",  "coefficientOfVariation",
        "amdahlSpeedup", "uniform",       "gaussian",
        "sqrt",          "exp",           "log",
        "pow",           "floor",         "ceil",
        "round",         "fabs",
    };
    return apis;
}

} // namespace

namespace {

/** Does @p code declare @p name with one of the @p types keywords? */
bool
declaresAs(const std::string& code, const std::string& name,
           const std::initializer_list<const char*>& types)
{
    std::size_t at = 0;
    while ((at = code.find(name, at)) != std::string::npos) {
        const bool left_ok = at == 0 || !isIdentChar(code[at - 1]);
        const std::size_t end = at + name.size();
        const bool right_ok =
            end >= code.size() || !isIdentChar(code[end]);
        if (left_ok && right_ok) {
            // Read the type token leftwards, past &/* qualifiers.
            std::size_t i = at;
            while (i > 0 &&
                   (std::isspace(
                        static_cast<unsigned char>(code[i - 1])) != 0 ||
                    code[i - 1] == '&' || code[i - 1] == '*'))
                --i;
            const std::string prev = prevTokenBefore(code, i);
            for (const char* type : types)
                if (prev == type || prev == std::string("std::") + type)
                    return true;
        }
        at = end;
    }
    return false;
}

} // namespace

bool
isFloatingToken(const SourceFile& file, const std::string& token,
                std::size_t line_index)
{
    if (token.empty())
        return false;
    if (isFloatLiteral(token))
        return true;
    // Strip a qualification chain down to the final component so
    // std::sqrt and satori::mean resolve like sqrt and mean.
    std::string base = token;
    const std::size_t colon = base.rfind("::");
    if (colon != std::string::npos)
        base = base.substr(colon + 2);
    if (file.float_idents.count(base) != 0) {
        if (file.integer_idents.count(base) == 0)
            return true;
        // Ambiguous name (declared with both kinds somewhere in the
        // file, e.g. `int total` here and `double total` elsewhere):
        // the nearest declaration at or above the use decides.
        const std::size_t lo =
            std::min(line_index, file.lines.size() - 1);
        for (std::size_t l = lo + 1; l-- > 0;) {
            const std::string& code = file.lines[l].code;
            if (declaresAs(code, base, {"double", "float"}))
                return true;
            if (declaresAs(code, base,
                           {"int", "long", "short", "unsigned",
                            "size_t", "uint64_t", "int64_t",
                            "uint32_t", "int32_t", "bool", "char",
                            "auto"}))
                return false;
        }
        return false;
    }
    return knownDoubleApis().count(base) != 0;
}

namespace {

/** Record declared double/float and unordered-container identifiers. */
void
harvestIdentifiers(const std::string& code, SourceFile& file)
{
    const auto harvest = [&code](const char* kw,
                                 std::set<std::string>& into) {
        std::size_t at = 0;
        const std::string word(kw);
        while ((at = code.find(word, at)) != std::string::npos) {
            const bool left_ok = at == 0 || !isIdentChar(code[at - 1]);
            const std::size_t end = at + word.size();
            const bool right_ok =
                end >= code.size() || !isIdentChar(code[end]);
            if (left_ok && right_ok) {
                const std::string next = nextTokenAfter(code, end);
                if (!next.empty() && isIdentChar(next[0]) &&
                    std::isdigit(static_cast<unsigned char>(next[0])) ==
                        0)
                    into.insert(next);
            }
            at = end;
        }
    };
    for (const char* kw : {"double", "float"})
        harvest(kw, file.float_idents);
    for (const char* kw : {"int", "long", "short", "unsigned", "size_t",
                           "uint64_t", "int64_t", "uint32_t", "int32_t"})
        harvest(kw, file.integer_idents);
    for (const char* kw : {"unordered_map", "unordered_set"}) {
        std::size_t at = 0;
        const std::string word(kw);
        while ((at = code.find(word, at)) != std::string::npos) {
            std::size_t i = at + word.size();
            if (i < code.size() && code[i] == '<') {
                const std::size_t close =
                    findMatching(code, i, '<', '>');
                if (close != std::string::npos) {
                    // Skip ref/pointer qualifiers so parameters like
                    // `const unordered_map<K, V>& table` harvest too.
                    std::size_t j = close + 1;
                    while (j < code.size() &&
                           (std::isspace(static_cast<unsigned char>(
                                code[j])) != 0 ||
                            code[j] == '&' || code[j] == '*'))
                        ++j;
                    const std::string next = nextTokenAfter(code, j);
                    if (!next.empty() && isIdentChar(next[0]))
                        file.unordered_idents.insert(next);
                }
            }
            at = at + word.size();
        }
    }
}

} // namespace

SourceFile
loadSourceFile(const fs::path& path)
{
    SourceFile file;
    file.path = path;
    file.display = path.generic_string();
    file.is_header = path.extension() == ".hpp";

    std::ifstream in(path);
    std::string raw;
    bool in_block = false;
    bool continuation = false;
    while (std::getline(in, raw)) {
        SourceLine line;
        line.raw = raw;
        line.code = stripCommentsAndStrings(raw, in_block);
        std::size_t first = 0;
        while (first < line.code.size() &&
               std::isspace(
                   static_cast<unsigned char>(line.code[first])) != 0)
            ++first;
        line.preproc = continuation ||
                       (first < line.code.size() &&
                        line.code[first] == '#');
        continuation = line.preproc && !line.code.empty() &&
                       line.code.back() == '\\';
        if (line.preproc) {
            if (line.code.find("<cmath>") != std::string::npos)
                file.has_cmath = true;
            if (line.code.find("<cstdlib>") != std::string::npos)
                file.has_cstdlib = true;
        } else {
            harvestIdentifiers(line.code, file);
        }
        file.lines.push_back(std::move(line));
    }
    return file;
}

std::string
guardRelativePath(const fs::path& file, const fs::path& include_root,
                  const fs::path& scan_target)
{
    std::error_code ec;
    if (!include_root.empty()) {
        const fs::path rel = fs::relative(file, include_root, ec);
        if (!ec && !rel.empty() &&
            rel.generic_string().rfind("..", 0) != 0)
            return rel.generic_string();
    }
    // Outside the include root, derive from the scan target's parent
    // so `bench/bench_util.hpp` scanned via target `bench` keeps its
    // directory in the guard (SATORI_BENCH_BENCH_UTIL_HPP).
    fs::path base = scan_target.parent_path();
    if (base.empty())
        base = "."; // single-component relative target, e.g. `bench`
    const fs::path rel = fs::relative(file, base, ec);
    if (!ec && !rel.empty() && rel.generic_string().rfind("..", 0) != 0)
        return rel.generic_string();
    return file.filename().generic_string();
}

} // namespace satori_analyzer
