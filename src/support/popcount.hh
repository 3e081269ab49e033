/**
 * @file
 * Hardware popcount without a build flag: a function marked
 * TEPIC_POPCNT_CLONES is compiled twice, with and without the popcnt
 * instruction, and the loader picks one clone once, at load time.
 * Mark the function whose loop calls std::popcount, not a callee.
 */

#ifndef TEPIC_SUPPORT_POPCOUNT_HH
#define TEPIC_SUPPORT_POPCOUNT_HH

/*
 * Not under ThreadSanitizer: the clones' ifunc resolver runs during
 * relocation, before the TSan runtime is initialised, and the
 * instrumented resolver crashes every binary that links a clone.
 */
#if defined(__GNUC__) && defined(__x86_64__) && defined(__ELF__) &&        \
    !defined(__SANITIZE_THREAD__)
#define TEPIC_POPCNT_CLONES [[gnu::target_clones("popcnt", "default")]]
#else
#define TEPIC_POPCNT_CLONES
#endif

#endif // TEPIC_SUPPORT_POPCOUNT_HH
