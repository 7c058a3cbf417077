/* A PC sampler for profiling this repository's native executables
   where perf is missing or forbidden.

   Preloaded into a process (LD_PRELOAD), it arms the process's own
   ITIMER_PROF and, on each SIGPROF, records the interrupted
   instruction pointer (REG_RIP, x86-64 Linux). At exit it writes, into
   SAMPLER_DIR:

     prof.<pid>.samples  line 1: "base <hex> <path>" (the executable's
                         load bias and path), then one hex PC per line
     prof.<pid>.exe      a byte copy of /proc/self/exe

   The copy is the binary that was sampled even if a rebuild has since
   replaced the file on disk, so scripts/profile.py resolves every PC
   against the right symbols. The sampler touches only its own process:
   one interval timer and one signal handler.

   SAMPLER_DIR is fixed at compile time; scripts/profile.py builds this
   file into a fresh directory for each run:

     cc -O2 -shared -fPIC -DSAMPLER_DIR='"/tmp/d"' sampler.c -o sampler.so */

#define _GNU_SOURCE
#include <fcntl.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#ifndef SAMPLER_DIR
#error "compile with -DSAMPLER_DIR='\"/some/dir\"'"
#endif

/* at the kernel's 250 Hz tick, about 70 minutes of CPU time */
#define MAX_SAMPLES (1 << 20)
#define PERIOD_US 1000

static uintptr_t samples[MAX_SAMPLES];
static volatile long nsamples;
static uintptr_t exe_base;
static int armed;

static void on_prof(int sig, siginfo_t *info, void *uctx) {
  (void)sig;
  (void)info;
  long i = __atomic_fetch_add(&nsamples, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES)
    samples[i] = (uintptr_t)((ucontext_t *)uctx)->uc_mcontext.gregs[REG_RIP];
}

/* the first object dl_iterate_phdr reports is the executable */
static int first_object(struct dl_phdr_info *info, size_t size, void *data) {
  (void)size;
  *(uintptr_t *)data = (uintptr_t)info->dlpi_addr;
  return 1;
}

static void copy_exe(const char *dst) {
  char buf[1 << 16];
  int in = open("/proc/self/exe", O_RDONLY);
  int out = open(dst, O_WRONLY | O_CREAT | O_TRUNC, 0600);
  ssize_t n;
  if (in >= 0 && out >= 0)
    while ((n = read(in, buf, sizeof buf)) > 0)
      if (write(out, buf, (size_t)n) != n) break;
  if (in >= 0) close(in);
  if (out >= 0) close(out);
}

__attribute__((constructor)) static void sampler_start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;
  dl_iterate_phdr(first_object, &exe_base);
  struct itimerval tv = {{0, PERIOD_US}, {0, PERIOD_US}};
  armed = setitimer(ITIMER_PROF, &tv, NULL) == 0;
}

__attribute__((destructor)) static void sampler_stop(void) {
  if (!armed) return;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  long n = nsamples < MAX_SAMPLES ? nsamples : MAX_SAMPLES;
  if (n == 0) return;
  char path[4096];
  snprintf(path, sizeof path, "%s/prof.%d.exe", SAMPLER_DIR, (int)getpid());
  copy_exe(path);
  snprintf(path, sizeof path, "%s/prof.%d.samples", SAMPLER_DIR, (int)getpid());
  FILE *f = fopen(path, "w");
  if (f == NULL) return;
  char exe[4096];
  ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[len < 0 ? 0 : len] = '\0';
  fprintf(f, "base %lx %s\n", (unsigned long)exe_base, exe);
  for (long i = 0; i < n; i++) fprintf(f, "%lx\n", (unsigned long)samples[i]);
  fclose(f);
}
