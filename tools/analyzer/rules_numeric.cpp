/**
 * @file
 * Numeric-hygiene rule pack: the BO/GP path (kernel matrices,
 * Cholesky, acquisition values) is all doubles, and the SPD guarantees
 * live or die on well-behaved float handling. These passes catch the
 * classic traps at commit time.
 *
 * Rules: num-float-eq, num-int-abs. C-style casts are the compiler's
 * job (-Wold-style-cast, an error under -Werror).
 */

#include "analyzer/analyzer.hpp"

#include <cctype>

namespace satori_analyzer {

namespace {

void
add(std::vector<Finding>& findings, const SourceFile& file, int line,
    const char* rule, std::string message)
{
    Finding f;
    f.file = file.display;
    f.line = line;
    f.rule = rule;
    f.message = std::move(message);
    findings.push_back(std::move(f));
}

/** Final component of a qualified name (std::abs -> abs). */
std::string
baseName(const std::string& token)
{
    const std::size_t colon = token.rfind("::");
    return colon == std::string::npos ? token : token.substr(colon + 2);
}

/**
 * Resolve the operand token adjacent to a comparison at @p pos
 * (direction @p backward). A `)` resolves to the callee of the call
 * it closes, so `mean(v) == x` sees `mean`. Returns the token and
 * whether it is a call result.
 */
std::string
operandToken(const std::string& code, std::size_t pos, bool backward,
             bool& is_call)
{
    is_call = false;
    if (backward) {
        std::string tok = prevTokenBefore(code, pos);
        if (tok == ")") {
            // Walk back to the matching `(` and take the callee name.
            std::size_t i = pos;
            while (i > 0 &&
                   std::isspace(
                       static_cast<unsigned char>(code[i - 1])) != 0)
                --i;
            int depth = 0;
            while (i > 0) {
                --i;
                if (code[i] == ')')
                    ++depth;
                else if (code[i] == '(' && --depth == 0)
                    break;
            }
            is_call = true;
            return prevTokenBefore(code, i);
        }
        return tok;
    }
    std::string tok = nextTokenAfter(code, pos);
    if (!tok.empty() && isIdentChar(tok[0]) &&
        std::isdigit(static_cast<unsigned char>(tok[0])) == 0) {
        // Peek past the token: a `(` means a call.
        std::size_t i = code.find(tok, pos);
        if (i != std::string::npos) {
            i += tok.size();
            while (i < code.size() &&
                   std::isspace(
                       static_cast<unsigned char>(code[i])) != 0)
                ++i;
            if (i < code.size() && code[i] == '(')
                is_call = true;
        }
    }
    return tok;
}

bool
isZeroLiteral(const std::string& token)
{
    return token == "0.0" || token == "0." || token == "0.0f" ||
           token == "0.f" || token == "0.0F";
}

/**
 * True when a `== 0.0` comparison sits next to an explicit tolerance
 * idiom: std::abs on either operand, or an abs/tolerance token within
 * the two lines above (the sanctioned `std::abs(x) == 0.0` and
 * `if (std::abs(a - b) < eps)` shapes).
 */
bool
zeroCompareAllowlisted(const SourceFile& file, std::size_t li,
                       const std::string& left_tok,
                       const std::string& right_tok)
{
    if (baseName(left_tok) == "abs" || baseName(left_tok) == "fabs" ||
        baseName(right_tok) == "abs" || baseName(right_tok) == "fabs")
        return true;
    const std::size_t lo = li >= 2 ? li - 2 : 0;
    for (std::size_t l = lo; l <= li; ++l) {
        const std::string& code = file.lines[l].code;
        if (containsWord(code, "abs") || containsWord(code, "fabs") ||
            code.find("tol") != std::string::npos ||
            code.find("eps") != std::string::npos)
            return true;
    }
    return false;
}

void
scanFloatEquality(const SourceFile& file, std::vector<Finding>& findings)
{
    for (std::size_t li = 0; li < file.lines.size(); ++li) {
        if (file.lines[li].preproc)
            continue;
        const std::string& code = file.lines[li].code;
        const int lineno = static_cast<int>(li) + 1;
        for (std::size_t i = 0; i + 1 < code.size(); ++i) {
            const bool eq = code[i] == '=' && code[i + 1] == '=';
            const bool ne = code[i] == '!' && code[i + 1] == '=';
            if (!eq && !ne)
                continue;
            // Exclude <=, >=, ==>, and assignment contexts.
            if (eq && i > 0 &&
                (code[i - 1] == '<' || code[i - 1] == '>' ||
                 code[i - 1] == '=' || code[i - 1] == '!'))
                continue;
            if (eq && i + 2 < code.size() && code[i + 2] == '=')
                continue;
            bool left_call = false;
            bool right_call = false;
            const std::string left =
                operandToken(code, i, true, left_call);
            const std::string right =
                operandToken(code, i + 2, false, right_call);
            if (left == "operator" || right == "operator")
                continue;
            const bool left_float = isFloatingToken(file, left, li);
            const bool right_float = isFloatingToken(file, right, li);
            if (!left_float && !right_float)
                continue;
            if ((isZeroLiteral(left) || isZeroLiteral(right)) &&
                zeroCompareAllowlisted(file, li, left, right))
                continue;
            add(findings, file, lineno, "num-float-eq",
                std::string(eq ? "==" : "!=") +
                    " between floating-point expressions (`" + left +
                    "` vs `" + right +
                    "`); compare against a tolerance instead");
            i += 1;
        }
    }
}

void
scanIntegerAbs(const SourceFile& file, std::vector<Finding>& findings)
{
    for (std::size_t li = 0; li < file.lines.size(); ++li) {
        if (file.lines[li].preproc)
            continue;
        const std::string& code = file.lines[li].code;
        const int lineno = static_cast<int>(li) + 1;
        std::size_t at = 0;
        while ((at = code.find("abs", at)) != std::string::npos) {
            const std::size_t begin = at;
            at += 3;
            // Standalone `abs` or `std::abs` call; fabs/labs have an
            // identifier char on the left and are skipped here.
            if (begin > 0 && isIdentChar(code[begin - 1]))
                continue;
            if (begin + 3 >= code.size() || code[begin + 3] != '(')
                continue;
            const bool qualified =
                begin >= 2 && code[begin - 1] == ':' &&
                code[begin - 2] == ':';
            bool dummy = false;
            const std::string arg =
                operandToken(code, begin + 4, false, dummy);
            bool floating = isFloatingToken(file, arg, li);
            if (!floating) {
                const std::size_t close =
                    findMatching(code, begin + 3, '(', ')');
                if (close != std::string::npos) {
                    const std::string inner = code.substr(
                        begin + 4, close - begin - 4);
                    for (const std::string& name : file.float_idents)
                        if (containsWord(inner, name))
                            floating = true;
                }
            }
            if (!floating)
                continue;
            if (!qualified) {
                add(findings, file, lineno, "num-int-abs",
                    "C `abs(` on a floating argument truncates to "
                    "int; use std::abs with <cmath> included");
            } else if (!file.has_cmath) {
                add(findings, file, lineno, "num-int-abs",
                    "std::abs on a floating argument without <cmath>; "
                    "<cstdlib>'s integer overload may bind and "
                    "silently truncate");
            }
        }
    }
}

} // namespace

void
runNumericPack(const SourceFile& file, std::vector<Finding>& findings)
{
    scanFloatEquality(file, findings);
    scanIntegerAbs(file, findings);
}

} // namespace satori_analyzer
