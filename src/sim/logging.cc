#include "sim/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace mediaworm::sim {

namespace {

// Crash hook; the pair is read on the (single) failing thread just
// before termination.
std::atomic<CrashHook> g_crashHook{nullptr};
std::atomic<void*> g_crashContext{nullptr};

void
runCrashHook()
{
    if (CrashHook hook = g_crashHook.load())
        hook(g_crashContext.load());
}

void
vprint(const char* tag, const char* fmt, std::va_list args)
{
    std::fprintf(stderr, "%s", tag);
    std::vfprintf(stderr, fmt, args);
    std::fputc('\n', stderr);
}

} // namespace

void
fatal(const char* fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vprint("fatal: ", fmt, args);
    va_end(args);
    runCrashHook();
    std::exit(1);
}

void
panic(const char* fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vprint("panic: ", fmt, args);
    va_end(args);
    runCrashHook();
    std::abort();
}

void
setCrashHook(CrashHook hook, void* context)
{
    g_crashHook = hook;
    g_crashContext = context;
}

CrashHook
crashHook(void** context)
{
    if (context != nullptr)
        *context = g_crashContext.load();
    return g_crashHook.load();
}

void
warn(const char* fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vprint("warn: ", fmt, args);
    va_end(args);
}

} // namespace mediaworm::sim
