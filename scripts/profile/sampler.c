/*
 * A CPU sampler to preload into any process:
 *
 *     cc -O2 -shared -fPIC -o sampler.so sampler.c
 *     PROFILE_OUT=/tmp/prof LD_PRELOAD=$PWD/sampler.so target/release/campaign ...
 *
 * At load it arms ITIMER_PROF (every PROFILE_US microseconds of process
 * CPU time, default 1000; 0 takes no samples) and records the
 * `backtrace()` of whichever thread each SIGPROF interrupts. At exit it
 * writes `$PROFILE_OUT.<pid>` (default `profile.<pid>`): the peak
 * resident set (`ru_maxrss`), one line of return addresses per sample,
 * innermost first, and a copy of /proc/self/maps, which `report.py`
 * needs to turn the addresses into functions. It also prints the peak
 * resident set on stderr, so a run with PROFILE_US=0 measures memory
 * alone.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <unistd.h>

/* Frames kept per sample, the handler's own two included. */
#define MAX_DEPTH 96
/* Samples are packed as `depth, pc, pc, ...` into one buffer; its pages
 * are touched only as it fills (8 kB per 100 samples of depth 10). */
#define BUFFER_WORDS (1u << 24)

static uintptr_t buffer[BUFFER_WORDS];
static atomic_uint used;
static atomic_uint dropped;

static void on_sigprof(int sig) {
    (void)sig;
    void *frames[MAX_DEPTH];
    int depth = backtrace(frames, MAX_DEPTH);
    /* Frame 0 is this handler and frame 1 the signal trampoline. */
    if (depth <= 2)
        return;
    unsigned words = (unsigned)depth - 2 + 1;
    unsigned at = atomic_fetch_add(&used, words);
    if (at + words > BUFFER_WORDS) {
        atomic_fetch_add(&dropped, 1);
        return;
    }
    buffer[at] = (uintptr_t)depth - 2;
    for (int i = 2; i < depth; i++)
        buffer[at + (unsigned)i - 1] = (uintptr_t)frames[i];
}

__attribute__((constructor)) static void start(void) {
    const char *us = getenv("PROFILE_US");
    long period = us ? strtol(us, NULL, 10) : 1000;
    if (period <= 0)
        return;
    /* The first backtrace() loads the unwinder, which allocates; do it
     * here rather than in the signal handler. */
    void *warm[4];
    backtrace(warm, 4);
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_handler = on_sigprof;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, NULL);
    struct itimerval timer = {{0, period}, {0, period}};
    setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    fprintf(stderr, "profile: pid %d ru_maxrss %ld kB\n", (int)getpid(), usage.ru_maxrss);

    const char *base = getenv("PROFILE_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", base ? base : "profile", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out) {
        perror(path);
        return;
    }
    unsigned end = atomic_load(&used);
    if (end > BUFFER_WORDS)
        end = BUFFER_WORDS;
    fprintf(out, "ru_maxrss_kb %ld\n", usage.ru_maxrss);
    fprintf(out, "dropped %u\n", atomic_load(&dropped));
    for (unsigned at = 0; at < end;) {
        unsigned depth = (unsigned)buffer[at];
        if (depth == 0 || at + 1 + depth > end)
            break; /* a sample still being written when the timer stopped */
        fputs("sample", out);
        for (unsigned i = 1; i <= depth; i++)
            fprintf(out, " %lx", (unsigned long)buffer[at + i]);
        fputc('\n', out);
        at += 1 + depth;
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps))
            fprintf(out, "map %s", line);
        fclose(maps);
    }
    fclose(out);
}
