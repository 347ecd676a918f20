#include "satori/common/io.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "satori/common/logging.hpp"

namespace satori {

namespace {

[[nodiscard]] std::string
errnoText()
{
    return std::strerror(errno);
}

/** Flush @p path's data to stable storage (no-op off POSIX). */
void
fsyncPath(const std::string& path)
{
#if defined(__unix__) || defined(__APPLE__)
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        SATORI_FATAL("cannot reopen for fsync: " + path + ": " +
                     errnoText());
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0)
        SATORI_FATAL("fsync failed: " + path + ": " + errnoText());
#else
    (void)path;
#endif
}

[[nodiscard]] std::string
parentDir(const std::string& path)
{
    const auto slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

[[nodiscard]] bool
dirWritable(const std::string& dir)
{
#if defined(__unix__) || defined(__APPLE__)
    return ::access(dir.c_str(), W_OK | X_OK) == 0;
#else
    return true;
#endif
}

} // namespace

void
atomicWriteFile(const std::string& path, std::string_view content,
                bool sync)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out.good())
            SATORI_FATAL("cannot create file: " + tmp + ": " +
                         errnoText());
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
        out.flush();
        if (!out.good())
            SATORI_FATAL("write failed: " + tmp + ": " + errnoText());
    }
    if (sync)
        fsyncPath(tmp);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        SATORI_FATAL("cannot install " + path + " (rename from " + tmp +
                     "): " + errnoText());
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        SATORI_FATAL("cannot open file: " + path + ": " + errnoText());
    std::ostringstream contents;
    contents << in.rdbuf();
    if (in.bad())
        SATORI_FATAL("read failed: " + path + ": " + errnoText());
    return contents.str();
}

bool
pathExists(const std::string& path)
{
    std::error_code ec;
    return std::filesystem::exists(path, ec);
}

void
validateOutputFile(const std::string& flag, const std::string& path)
{
    if (path.empty())
        return;
    const std::string dir = parentDir(path);
    std::error_code ec;
    if (!std::filesystem::exists(dir, ec))
        SATORI_FATAL(flag + ": directory '" + dir + "' does not exist");
    if (!std::filesystem::is_directory(dir, ec))
        SATORI_FATAL(flag + ": '" + dir + "' is not a directory");
    if (!dirWritable(dir))
        SATORI_FATAL(flag + ": directory '" + dir + "' is not writable");
    if (std::filesystem::is_directory(path, ec))
        SATORI_FATAL(flag + ": '" + path + "' is a directory, not a file");
}

void
validateOutputDir(const std::string& flag, const std::string& path)
{
    if (path.empty())
        return;
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) {
        if (!std::filesystem::is_directory(path, ec))
            SATORI_FATAL(flag + ": '" + path + "' exists and is not a "
                         "directory");
    } else if (!std::filesystem::create_directories(path, ec) || ec) {
        SATORI_FATAL(flag + ": cannot create directory '" + path +
                     "': " + ec.message());
    }
    if (!dirWritable(path))
        SATORI_FATAL(flag + ": directory '" + path + "' is not writable");
}

std::string
formatNumber(double value)
{
    std::ostringstream out;
    out << std::setprecision(10) << value;
    return out.str();
}

std::string
escapeText(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out.push_back(c);
    }
    return out;
}

} // namespace satori
