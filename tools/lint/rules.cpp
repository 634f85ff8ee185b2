// Per-file token rules. Cross-file coverage rules live in coverage.cpp; the
// registry at the bottom of this file stitches both sets together.
#include <algorithm>
#include <array>
#include <string_view>

#include "lint.h"

namespace gvfs::lint {

namespace {

bool Is(const Token& t, std::string_view text) { return t.text == text; }

bool IsIdent(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

bool AnyOf(const Token& t, std::initializer_list<std::string_view> names) {
  if (t.kind != TokKind::kIdent) return false;
  return std::any_of(names.begin(), names.end(),
                     [&](std::string_view n) { return t.text == n; });
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

void Add(std::vector<Finding>& out, const FileUnit& unit, const char* rule,
         int line, std::string message) {
  out.push_back({rule, unit.rel_path, line, std::move(message)});
}

// ---------------------------------------------------------------------------
// Determinism rules
// ---------------------------------------------------------------------------

/// wall-clock: any read of real time. Simulation time comes exclusively from
/// sim::Scheduler::Now(); a wall-clock read anywhere in the tree makes runs
/// non-reproducible (and sampler-determinism tests flaky).
void CheckWallClock(const FileUnit& unit, std::vector<Finding>& out) {
  const auto& toks = unit.lex.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (AnyOf(t, {"gettimeofday", "clock_gettime", "localtime", "gmtime",
                  "ftime", "timespec_get"})) {
      Add(out, unit, "wall-clock", t.line,
          "'" + t.text + "' reads the wall clock; use the simulation clock "
          "(sim::Scheduler::Now)");
      continue;
    }
    // std::chrono clocks: `steady_clock::now`, `system_clock::now`, ...
    if (t.kind == TokKind::kIdent && EndsWith(t.text, "_clock") &&
        i + 2 < toks.size() && Is(toks[i + 1], "::") &&
        IsIdent(toks[i + 2], "now")) {
      Add(out, unit, "wall-clock", t.line,
          "'" + t.text + "::now' reads the wall clock; use the simulation "
          "clock (sim::Scheduler::Now)");
      continue;
    }
    // C `time(...)`: only the whole identifier followed by a call.
    if (IsIdent(t, "time") && i + 1 < toks.size() && Is(toks[i + 1], "(")) {
      Add(out, unit, "wall-clock", t.line,
          "'time(' reads the wall clock; use the simulation clock "
          "(sim::Scheduler::Now)");
    }
  }
}

/// ambient-randomness: any RNG that is not gvfs::Rng with an explicit seed.
/// Default-seeded engines and std::random_device give every run a different
/// sequence, which breaks byte-for-byte reproducibility.
void CheckAmbientRandomness(const FileUnit& unit, std::vector<Finding>& out) {
  for (const Token& t : unit.lex.tokens) {
    if (AnyOf(t, {"rand", "srand", "rand_r", "drand48", "random_device",
                  "mt19937", "mt19937_64", "default_random_engine",
                  "minstd_rand", "minstd_rand0", "random_shuffle"})) {
      Add(out, unit, "ambient-randomness", t.line,
          "'" + t.text + "' is ambient randomness; use gvfs::Rng with an "
          "explicit seed (common/rng.h)");
    }
  }
}

/// banned-include: headers whose only use cases are the two rules above.
/// Catching the include keeps the diagnostic at the point of intent.
void CheckBannedInclude(const FileUnit& unit, std::vector<Finding>& out) {
  static constexpr std::array<std::string_view, 5> kBanned = {
      "random", "chrono", "ctime", "time.h", "sys/time.h"};
  for (const IncludeDirective& inc : unit.lex.includes) {
    if (std::find(kBanned.begin(), kBanned.end(), inc.header) != kBanned.end()) {
      Add(out, unit, "banned-include", inc.line,
          "#include <" + inc.header + "> pulls in wall-clock/randomness APIs; "
          "deterministic code uses sim time and common/rng.h");
    }
  }
}

/// unordered-container: hash containers iterate in a seed- and
/// libstdc++-version-dependent order. Any loop over one that reaches an
/// exporter, a trace, or an RPC body de-determinizes output byte order.
void CheckUnorderedContainer(const FileUnit& unit, std::vector<Finding>& out) {
  for (const Token& t : unit.lex.tokens) {
    if (AnyOf(t, {"unordered_map", "unordered_set", "unordered_multimap",
                  "unordered_multiset"})) {
      Add(out, unit, "unordered-container", t.line,
          "'" + t.text + "' iterates in nondeterministic order; use "
          "std::map/std::set, or suppress with a justification that no "
          "iteration order escapes");
    }
  }
}

/// pointer-order: ordering or hashing by pointer value varies with ASLR and
/// allocation history, so any container keyed this way iterates differently
/// run to run even when the code is otherwise deterministic.
void CheckPointerOrder(const FileUnit& unit, std::vector<Finding>& out) {
  const auto& toks = unit.lex.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (AnyOf(t, {"uintptr_t", "intptr_t"})) {
      Add(out, unit, "pointer-order", t.line,
          "'" + t.text + "' converts a pointer to an integer; pointer values "
          "vary run to run — key on stable ids instead");
      continue;
    }
    // std::hash<T*> (or hash<...*...>): scan the template argument list.
    if (IsIdent(t, "hash") && i + 1 < toks.size() && Is(toks[i + 1], "<")) {
      int depth = 0;
      for (std::size_t j = i + 1; j < toks.size() && j < i + 64; ++j) {
        if (Is(toks[j], "<")) ++depth;
        if (Is(toks[j], ">") && --depth == 0) break;
        if (Is(toks[j], ";")) break;  // it was a comparison, not a template
        if (depth >= 1 && Is(toks[j], "*")) {
          Add(out, unit, "pointer-order", t.line,
              "hashing a pointer type; pointer values vary run to run — "
              "hash stable ids instead");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Error-discipline rules (protocol paths only)
// ---------------------------------------------------------------------------

/// throw-in-protocol: the expected.h contract — protocol code returns errors
/// as values; an exception thrown across a coroutine frame unwinds through
/// the scheduler and tears down the simulation.
void CheckThrow(const FileUnit& unit, std::vector<Finding>& out) {
  for (const Token& t : unit.lex.tokens) {
    if (AnyOf(t, {"throw", "rethrow_exception"})) {
      Add(out, unit, "throw-in-protocol", t.line,
          "'" + t.text + "' in a protocol path; return Expected<> instead "
          "(exceptions must not cross coroutine frames)");
    }
  }
}

/// try-in-protocol: a handler that catches is a handler that expects someone
/// below it to throw — same contract violation from the consumer side.
void CheckTry(const FileUnit& unit, std::vector<Finding>& out) {
  for (const Token& t : unit.lex.tokens) {
    if (AnyOf(t, {"try", "catch"})) {
      Add(out, unit, "try-in-protocol", t.line,
          "'" + t.text + "' in a protocol path; errors travel as Expected<> "
          "values, not exceptions");
    }
  }
}

/// discarded-expected: `(void)` on a call result in a protocol path throws
/// away an Expected<> — a swallowed RPC or filesystem error. Plain variable
/// discards (`(void)arg;`) are fine; only discarded *calls* fire.
void CheckDiscardedExpected(const FileUnit& unit, std::vector<Finding>& out) {
  const auto& toks = unit.lex.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!(Is(toks[i], "(") && IsIdent(toks[i + 1], "void") &&
          Is(toks[i + 2], ")"))) {
      continue;
    }
    int depth = 0;
    for (std::size_t j = i + 3; j < toks.size() && j < i + 256; ++j) {
      if (Is(toks[j], ";") && depth == 0) break;
      if (Is(toks[j], "(")) ++depth;
      if (Is(toks[j], ")")) --depth;
      if (IsIdent(toks[j], "co_await") || Is(toks[j], "(")) {
        Add(out, unit, "discarded-expected", toks[i].line,
            "'(void)' discards a call result in a protocol path; handle the "
            "Expected<> or suppress with a reason");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hot-path discipline (src/sim and src/rpc only)
// ---------------------------------------------------------------------------

/// hot-path-type: src/sim runs an event and src/rpc a packet millions of
/// times per benchmark, and both were rebuilt around allocation-free
/// structures (sim::EventFn's inline storage, gvfs::FlatMap, the per-host
/// dispatch vector). A std::function posted per event re-introduces a heap
/// allocation + indirect call per occurrence; a std::map consulted per call
/// re-introduces a pointer chase per packet. Both are banned in these two
/// directories; registration-time or report-ordering uses stay allowed via
/// a reasoned suppression.
void CheckHotPathType(const FileUnit& unit, std::vector<Finding>& out) {
  const auto& toks = unit.lex.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!(IsIdent(toks[i], "std") && Is(toks[i + 1], "::"))) continue;
    const Token& t = toks[i + 2];
    if (IsIdent(t, "function")) {
      Add(out, unit, "hot-path-type", t.line,
          "'std::function' in an event/packet hot path allocates and "
          "indirects per call; use sim::EventFn (sim/callback.h) or a "
          "concrete callable, or suppress where the type erasure is "
          "registration-time only");
    } else if (IsIdent(t, "map")) {
      Add(out, unit, "hot-path-type", t.line,
          "'std::map' in an event/packet hot path costs a pointer chase per "
          "lookup; use gvfs::FlatMap (common/flat_map.h) or a flat vector, "
          "or suppress where ordered iteration is load-bearing");
    }
  }
}

// ---------------------------------------------------------------------------
// Zero-copy data plane (src/gvfs, src/nfs3, src/fleet)
// ---------------------------------------------------------------------------

/// True when toks[i] ends a member access: `.` or the `>` of `->`.
bool EndsMemberAccess(const std::vector<Token>& toks, std::size_t i) {
  return Is(toks[i], ".") || (Is(toks[i], ">") && i > 0 && Is(toks[i - 1], "-"));
}

/// data-copy: file data crosses these layers as shared blocks (the block
/// plane, common/block.h): a received rpc::Body is forwarded as it is, and
/// READ/WRITE data stays a BlockRef from page cache to memfs. Materializing
/// a body (`ToBytes()`, `Flatten()`) or range-copying into a fresh `Bytes`
/// (`Bytes(x.begin(), x.end())`) on this path silently brings back the
/// per-hop 32 KB copies. Intended copies carry a reasoned suppression.
void CheckDataCopy(const FileUnit& unit, std::vector<Finding>& out) {
  const auto& toks = unit.lex.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (EndsMemberAccess(toks, i) && AnyOf(toks[i + 1], {"ToBytes", "Flatten"}) &&
        Is(toks[i + 2], "(")) {
      Add(out, unit, "data-copy", toks[i + 1].line,
          "'" + toks[i + 1].text + "()' copies a message body; forward the "
          "rpc::Body itself or decode its blocks by reference");
      continue;
    }
    if (!IsIdent(toks[i], "Bytes")) continue;
    // `Bytes(...)`, `Bytes{...}` or `Bytes name(...)` / `Bytes name{...}`.
    std::size_t open = i + 1;
    if (toks[open].kind == TokKind::kIdent) ++open;
    if (open >= toks.size() || !(Is(toks[open], "(") || Is(toks[open], "{"))) continue;
    const std::string close = Is(toks[open], "(") ? ")" : "}";
    int depth = 0;
    for (std::size_t j = open; j < toks.size(); ++j) {
      if (Is(toks[j], toks[open].text)) ++depth;
      if (Is(toks[j], close) && --depth == 0) break;
      if (j + 1 < toks.size() && EndsMemberAccess(toks, j) &&
          AnyOf(toks[j + 1], {"begin", "data"})) {
        Add(out, unit, "data-copy", toks[i].line,
            "range-copying into a fresh 'Bytes' duplicates data the block "
            "plane shares; pass the BlockRef (or a Slice of it) instead");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Suppression hygiene
// ---------------------------------------------------------------------------

/// bad-suppression: an allow() with no reason, or naming a rule that does
/// not exist (usually a typo that silently suppresses nothing).
void CheckBadSuppression(const FileUnit& unit, std::vector<Finding>& out) {
  for (const Suppression& s : unit.suppressions) {
    if (s.reason.empty()) {
      Add(out, unit, "bad-suppression", s.line,
          "suppression without a reason; write "
          "'gvfs-lint: allow(<rule>): <why>'");
    }
    for (const std::string& rule : s.rules) {
      if (!IsKnownRule(rule)) {
        Add(out, unit, "bad-suppression", s.line,
            "suppression names unknown rule '" + rule + "'");
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

bool InProtocolDirs(const std::string& rel_path) {
  return StartsWith(rel_path, "src/gvfs/") || StartsWith(rel_path, "src/rpc/") ||
         StartsWith(rel_path, "src/nfs3/") || StartsWith(rel_path, "src/sim/") ||
         StartsWith(rel_path, "src/fleet/") ||
         StartsWith(rel_path, "src/policy/");
}

bool InSrc(const std::string& rel_path) { return StartsWith(rel_path, "src/"); }

bool InSrcOrBench(const std::string& rel_path) {
  return StartsWith(rel_path, "src/") || StartsWith(rel_path, "bench/");
}

bool InHotPathDirs(const std::string& rel_path) {
  return StartsWith(rel_path, "src/sim/") || StartsWith(rel_path, "src/rpc/");
}

namespace {

bool InDataPlaneDirs(const std::string& rel_path) {
  return StartsWith(rel_path, "src/gvfs/") || StartsWith(rel_path, "src/nfs3/") ||
         StartsWith(rel_path, "src/fleet/");
}

}  // namespace

namespace {

bool NotRngHeader(const std::string& rel_path) {
  return rel_path != "src/common/rng.h";
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// Defined in coverage.cpp.
void CheckProcCoverage(const Tree& tree, std::vector<Finding>& out);
void CheckStatsNameCoverage(const Tree& tree, std::vector<Finding>& out);
void CheckInvCoverage(const Tree& tree, std::vector<Finding>& out);
void CheckMigrateCoverage(const Tree& tree, std::vector<Finding>& out);
void CheckTraceCoverage(const Tree& tree, std::vector<Finding>& out);
void CheckAnomalyCoverage(const Tree& tree, std::vector<Finding>& out);

// Defined in dataflow.cpp (the gvfs-analyze suspend-safety pass).
void CheckUseAfterSuspend(const FileUnit& unit, std::vector<Finding>& out);
void CheckIterAfterSuspend(const FileUnit& unit, std::vector<Finding>& out);
void CheckLockAcrossSuspend(const FileUnit& unit, std::vector<Finding>& out);
void CheckDetachedTask(const Tree& tree, std::vector<Finding>& out);

const std::vector<RuleInfo>& AllRules() {
  static const std::vector<RuleInfo> kRules = {
      {"wall-clock",
       "Wall-clock reads break deterministic simulation; use sim time",
       CheckWallClock, nullptr, nullptr},
      {"ambient-randomness",
       "Unseeded/ambient RNGs break reproducibility; use gvfs::Rng",
       CheckAmbientRandomness, nullptr, NotRngHeader},
      {"banned-include",
       "<random>/<chrono>/<ctime> pull in nondeterministic APIs",
       CheckBannedInclude, nullptr, NotRngHeader},
      {"unordered-container",
       "Hash containers iterate in nondeterministic order",
       CheckUnorderedContainer, nullptr, InSrcOrBench},
      {"pointer-order",
       "Ordering/hashing by pointer value varies run to run",
       CheckPointerOrder, nullptr, InSrcOrBench},
      {"throw-in-protocol",
       "Protocol paths return Expected<>; exceptions must not cross "
       "coroutine frames",
       CheckThrow, nullptr, InProtocolDirs},
      {"try-in-protocol",
       "Protocol paths consume Expected<>; try/catch violates the contract",
       CheckTry, nullptr, InProtocolDirs},
      {"discarded-expected",
       "(void)-discarding a call result swallows protocol errors",
       CheckDiscardedExpected, nullptr, InProtocolDirs},
      {"hot-path-type",
       "std::function/std::map in sim/rpc hot paths; use EventFn/FlatMap",
       CheckHotPathType, nullptr, InHotPathDirs},
      {"data-copy",
       "Body/block copies (ToBytes, Flatten, Bytes(x.begin(), ...)) on the "
       "gvfs/nfs3/fleet data path; pass blocks by reference",
       CheckDataCopy, nullptr, InDataPlaneDirs},
      {"bad-suppression",
       "Suppressions must name real rules and give a reason",
       CheckBadSuppression, nullptr, nullptr},
      {"proc-coverage",
       "Every NFS/GVFS proc needs a registered handler and a Classify case",
       nullptr, CheckProcCoverage, nullptr},
      {"stats-name-coverage",
       "Every NFS/GVFS proc needs a ProcName/GvfsProcName entry",
       nullptr, CheckStatsNameCoverage, nullptr},
      {"inv-coverage",
       "Mutating procs and the aggregation tier must append invalidation "
       "entries",
       nullptr, CheckInvCoverage, nullptr},
      {"migrate-coverage",
       "The MIGRATE handshake must drain invalidations and recall conflicts "
       "before switching modes",
       nullptr, CheckMigrateCoverage, nullptr},
      {"trace-coverage",
       "Invalidation appends must be traced; every EventType needs a name",
       nullptr, CheckTraceCoverage, nullptr},
      {"anomaly-coverage",
       "Every AnomalyKind needs a kDetectors entry, a wire name, and a "
       "doctor remedy",
       nullptr, CheckAnomalyCoverage, nullptr},
      {"use-after-suspend",
       "Reference-like values created before a co_await and used after it "
       "may dangle; copy before suspending or re-acquire after",
       CheckUseAfterSuspend, nullptr, InSrc},
      {"iter-after-suspend",
       "Iterators held across a suspend point are invalidated if the "
       "container mutates while the frame is parked",
       CheckIterAfterSuspend, nullptr, InSrc},
      {"lock-across-suspend",
       "A sim::Mutex/Semaphore held across a later co_await serializes "
       "every peer for the whole await",
       CheckLockAcrossSuspend, nullptr, InSrc},
      {"detached-task",
       "Discarding a Task-returning call drops a lazy coroutine that will "
       "never run",
       nullptr, CheckDetachedTask, nullptr},
  };
  return kRules;
}

bool IsKnownRule(const std::string& id) {
  for (const RuleInfo& rule : AllRules()) {
    if (id == rule.id) return true;
  }
  return false;
}

}  // namespace gvfs::lint
