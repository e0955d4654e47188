"""Repo-specific analyzer rules that clang-tidy cannot express.

Each rule is a function over (Analysis, SourceFile) registered with
@rule(name, description). Rules scan the comment/string-stripped text
(offsets preserved) so literals and prose never trip them; inline
suppressions (`// cirank-lint: disable=<rule>`) are applied by the runner.
"""

import re

from analyze.framework import Finding, rule

# ---------------------------------------------------------------------------
# Shared tables and patterns


# Files allowed to reference the raw PRNG primitives.
RANDOM_IMPL_FILES = {"src/util/random.h", "src/util/random.cc"}

# The single sanctioned owner of raw threads.
THREAD_IMPL_FILES = {"src/util/thread_pool.h", "src/util/thread_pool.cc"}

# The single sanctioned owner of raw std::mutex / std::condition_variable:
# the annotated wrappers everyone else must use (DESIGN.md §12).
MUTEX_IMPL_FILES = {"src/util/mutex.h"}

BANNED_THREAD = re.compile(r"\bstd::(thread|jthread|async)\b")

BANNED_RANDOM = re.compile(
    r"\bstd::(rand|srand|mt19937(_64)?|random_device|default_random_engine|"
    r"minstd_rand0?)\b|\bsrand\s*\(")

BANNED_MUTEX = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"condition_variable(_any)?)\b")

MUTEX_INCLUDE = re.compile(
    r"^\s*#\s*include\s*<(mutex|shared_mutex|condition_variable)>")

USING_NAMESPACE = re.compile(r"^\s*using\s+namespace\b")

# Declarations of status-returning functions in headers, e.g.
#   [[nodiscard]] static Result<Jtt> Create(
#   Status AddEdge(
DECL = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s+)?(?:static\s+|virtual\s+)?"
    r"(?:Status|Result<[^;{=()]*>)\s+(\w+)\s*\(", re.M)

# A bare call statement: optional object/scope prefix, then a known name.
CALL_STMT = re.compile(r"^[ \t]*((?:\w+(?:\.|->|::))*)(\w+)\s*\(", re.M)

# An explicit discard: `(void)foo.Bar(...)`. [[nodiscard]] lets this compile,
# but the project's one sanctioned spelling is CIRANK_IGNORE_ERROR — it is
# grep-able and self-documenting at the call site.
VOID_DISCARD = re.compile(
    r"\(\s*void\s*\)\s*((?:\w+(?:\.|->|::))*)(\w+)\s*\(")

# Factory-style members of Status itself count as unchecked temporaries too.
STATUS_FACTORIES = {"OK", "InvalidArgument", "NotFound", "OutOfRange",
                    "FailedPrecondition", "Internal", "Unimplemented",
                    "DeadlineExceeded"}

# The sanctioned raw `new`s in src/core: the intentionally-leaked
# ExecutorRegistry::Global() and RankerRegistry::Global() singletons (never
# destroyed, so the factories stay valid during static destruction).
ARENA_EXEMPT_FILES = {"src/core/execution.cc", "src/core/ranker.cc"}

RAW_NEW = re.compile(r"(?:::)?\bnew\b")
RAW_DELETE = re.compile(r"\bdelete\b(?:\s*\[\s*\])?")
DELETED_FUNCTION = re.compile(r"=\s*delete\b")

# Candidate-shaped payloads must be arena-placed, not heap-allocated one at
# a time (the hot path the Arena exists for).
PER_CANDIDATE_UNIQUE = re.compile(
    r"std::make_unique\s*<\s*(?:Candidate|AdmittedCandidate)\b")

# A *definition* (body, not declaration) of a ScoreAnswer-style tree-scoring
# method. Matches `double [Qualified::]ScoreAnswer(args) [const]
# [override|final] {`; pure-virtual declarations and calls don't end in `{`
# and stay out of scope. Runs over the stripped text, so args spanning lines
# are handled by the non-greedy body match.
TREE_SCORING_DEF = re.compile(
    r"\bdouble\s+(?:[\w<>]+::)*ScoreAnswer\s*\([^;(){}]*\)"
    r"(?:\s*const)?(?:\s*(?:override|final))*\s*\{")

# The sanctioned raw-output sites in src/: the logger's stderr sink and the
# two check-failure paths that must keep working when the logger itself is
# the thing that broke. Everything else routes through CIRANK_LOG
# (DESIGN.md §14). Tests, benches, and examples are programs — they print.
# tools/ is outside SOURCE_DIRS entirely (daemon mains own their stdout).
RAW_OUTPUT_IMPL_FILES = {"src/obs/log.h", "src/obs/log.cc",
                         "src/util/check.cc", "src/util/status.cc"}

RAW_OUTPUT_EXEMPT_PREFIXES = ("tests/", "bench/", "examples/")

# stdio writers and the iostream globals. \b keeps buffer formatters
# (snprintf/sprintf) out of scope — they don't touch a stream.
BANNED_OUTPUT = re.compile(
    r"\bstd::c(?:err|out|log)\b|"
    r"\b(?:std::)?(?:v?f?printf|fputs|fputc|puts|putchar|perror)\s*\(")

# std::atomic member operations that accept a std::memory_order argument.
ATOMIC_OP = re.compile(
    r"(?:\.|->)(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(")

# An explicitly spelled sequentially consistent order, in either spelling.
SEQ_CST = re.compile(r"\bmemory_order(?:_|::)seq_cst\b")

# Lock-acquisition sites for the lock-order rule (cirank types only).
MUTEXLOCK_DECL = re.compile(r"\bMutexLock\s+\w+\s*\(\s*([^()]*)\)")
MANUAL_LOCK = re.compile(r"([\w.\->\[\]]*(?:\.|->))Lock\s*\(\s*\)")
MANUAL_UNLOCK = re.compile(r"([\w.\->\[\]]*(?:\.|->))Unlock\s*\(\s*\)")

# The declared lock hierarchy (DESIGN.md §12). Lower rank = outer lock; a
# thread holding a lock may only acquire locks of strictly greater rank.
#   engine (Engine::Serving::feedback_mu)
#     → cache-shard (ShardedLruCache::Shard::mu)
#       → gather (shard::GatherState::gather_mu_)
#         → connection-table (CirankServer::conn_mu_)
#           → pool (ThreadPool::pool_mu_)
LOCK_HIERARCHY = (
    ("engine", re.compile(r"\bfeedback_mu\b")),
    ("cache-shard", re.compile(r"\bshard\w*\s*(?:\.|->)\s*mu\b")),
    ("gather", re.compile(r"\bgather_mu_?\b")),
    ("connection-table", re.compile(r"\bconn_mu_?\b")),
    ("pool", re.compile(r"\bpool_mu_?\b")),
)


def classify_lock(expr):
    """Maps a lock expression to (rank, level name), or None if unranked."""
    for rank, (name, pat) in enumerate(LOCK_HIERARCHY):
        if pat.search(expr):
            return rank, name
    return None


def expected_guard(rel):
    path = rel[len("src/"):] if rel.startswith("src/") else rel
    return "CIRANK_" + re.sub(r"[^A-Za-z0-9]", "_", path).upper() + "_"


def _statement_start(text, pos):
    """True if the previous significant character ends a statement/block."""
    p = pos - 1
    while p >= 0 and text[p] in " \t\n":
        p -= 1
    return p < 0 or text[p] in ";{}"


def _balanced_call(text, open_paren):
    """Returns the offset just past the ')' balancing text[open_paren]."""
    depth = 0
    j = open_paren
    while j < len(text):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return j + 1
        j += 1
    return None


def _followed_by_semicolon(text, pos):
    while pos < len(text) and text[pos] in " \t\n":
        pos += 1
    return pos < len(text) and text[pos] == ";"


# ---------------------------------------------------------------------------
# Rules


@rule("unchecked-status",
      "Status/Result values must be consumed; discard explicitly via "
      "CIRANK_IGNORE_ERROR, never as a bare statement or (void) cast")
def check_unchecked_status(analysis, src):
    names = analysis.status_names
    text = src.text
    for m in CALL_STMT.finditer(text):
        name = m.group(2)
        if name not in names:
            continue
        # Statement start only: skips continuations like
        # `auto x =\n    Jtt::Create(...);` where the value is consumed.
        if not _statement_start(text, m.start()):
            continue
        # CIRANK_RETURN_IF_ERROR(...) etc. look like calls; macros are exempt
        # by construction (they consume the status) and never in `names`.
        # Require `(...)` then `;` — anything else (`,`, `)`, `.`) means the
        # value is consumed by an enclosing expression.
        end = _balanced_call(text, m.end() - 1)
        if end is None or not _followed_by_semicolon(text, end):
            continue
        yield Finding(src.rel, src.line_of(m.start()), "unchecked-status",
                      f"result of `{name}(...)` is discarded; use "
                      f"CIRANK_CHECK_OK or CIRANK_IGNORE_ERROR")
    for m in VOID_DISCARD.finditer(text):
        name = m.group(2)
        if name not in names:
            continue
        if not _statement_start(text, m.start()):
            continue
        end = _balanced_call(text, m.end() - 1)
        if end is None or not _followed_by_semicolon(text, end):
            continue
        yield Finding(src.rel, src.line_of(m.start()), "unchecked-status",
                      f"`(void)` cast discards the result of `{name}(...)`; "
                      f"spell intentional drops as CIRANK_IGNORE_ERROR")


@rule("determinism",
      "raw PRNG primitives are confined to src/util/random.*; all other "
      "randomness flows through cirank::Rng")
def check_determinism(analysis, src):
    if src.rel in RANDOM_IMPL_FILES:
        return
    for i, line in enumerate(src.text.split("\n"), start=1):
        if BANNED_RANDOM.search(line):
            yield Finding(src.rel, i, "determinism",
                          "raw PRNG primitive outside src/util/random.*; "
                          "route randomness through cirank::Rng")


@rule("raw-thread",
      "std::thread/jthread/async are confined to src/util/thread_pool.*; "
      "all other concurrency flows through cirank::ThreadPool")
def check_raw_thread(analysis, src):
    if src.rel in THREAD_IMPL_FILES:
        return
    for i, line in enumerate(src.text.split("\n"), start=1):
        if BANNED_THREAD.search(line):
            yield Finding(src.rel, i, "raw-thread",
                          "std::thread/std::jthread/std::async outside "
                          "src/util/thread_pool.*; use cirank::ThreadPool")


@rule("raw-mutex",
      "std::mutex/lock_guard/condition_variable are confined to "
      "src/util/mutex.h; everything else uses the annotated cirank::Mutex "
      "family so the `tsa` preset can check the locking discipline")
def check_raw_mutex(analysis, src):
    if src.rel in MUTEX_IMPL_FILES:
        return
    for i, line in enumerate(src.text.split("\n"), start=1):
        if BANNED_MUTEX.search(line) or MUTEX_INCLUDE.search(line):
            yield Finding(src.rel, i, "raw-mutex",
                          "raw standard-library lock type outside "
                          "src/util/mutex.h; use cirank::Mutex / MutexLock / "
                          "CondVar (they carry thread-safety annotations)")


@rule("lock-order",
      "acquisitions of ranked locks must follow the declared hierarchy "
      "engine -> cache-shard -> gather -> connection-table -> pool; "
      "inversions risk deadlock")
def check_lock_order(analysis, src):
    # Lexical simulation of lock state: walk braces and acquisition sites in
    # source order. MutexLock scopes release at their closing brace; manual
    # Lock()/Unlock() pairs release at the matching Unlock (or, defensively,
    # at function end). Only locks that classify into the hierarchy are
    # tracked; same-rank re-acquisition is not flagged (shard sweeps take
    # shard locks one at a time in disjoint scopes).
    text = src.text
    events = []  # (offset, kind, payload)
    for off, ch in enumerate(text):
        if ch == "{":
            events.append((off, "open", None))
        elif ch == "}":
            events.append((off, "close", None))
    for m in MUTEXLOCK_DECL.finditer(text):
        events.append((m.start(), "scoped", m.group(1).strip()))
    for m in MANUAL_LOCK.finditer(text):
        events.append((m.start(), "manual", m.group(1).rstrip(".->")))
    for m in MANUAL_UNLOCK.finditer(text):
        events.append((m.start(), "unlock", m.group(1).rstrip(".->")))
    events.sort(key=lambda e: e[0])

    depth = 0
    held = []  # list of dicts: kind, expr, rank, level, depth
    for off, kind, payload in events:
        if kind == "open":
            depth += 1
        elif kind == "close":
            depth -= 1
            held = [h for h in held
                    if not (h["kind"] == "scoped" and h["depth"] > depth)]
            if depth <= 0:
                depth = 0
                held = []  # function boundary: nothing outlives it
        elif kind == "unlock":
            for i in range(len(held) - 1, -1, -1):
                if held[i]["kind"] == "manual" and held[i]["expr"] == payload:
                    del held[i]
                    break
        else:  # scoped / manual acquisition
            ranked = classify_lock(payload)
            if ranked is None:
                continue
            rank, level = ranked
            for h in held:
                if rank < h["rank"]:
                    yield Finding(
                        src.rel, src.line_of(off), "lock-order",
                        f"acquires {level}-level lock `{payload}` while "
                        f"holding {h['level']}-level lock `{h['expr']}`; "
                        f"the declared order is engine -> cache-shard -> "
                        f"gather -> connection-table -> pool")
            held.append({"kind": kind, "expr": payload, "rank": rank,
                         "level": level, "depth": depth})


@rule("raw-output",
      "stdout/stderr writes in src/ flow through CIRANK_LOG (obs/log.h); "
      "raw fprintf/std::cerr are confined to the logger sink and the "
      "check-failure paths")
def check_raw_output(analysis, src):
    if src.rel in RAW_OUTPUT_IMPL_FILES:
        return
    if src.rel.startswith(RAW_OUTPUT_EXEMPT_PREFIXES):
        return
    for i, line in enumerate(src.text.split("\n"), start=1):
        if BANNED_OUTPUT.search(line):
            yield Finding(src.rel, i, "raw-output",
                          "raw stream write outside the sanctioned sites; "
                          "log through CIRANK_LOG(...) so lines carry level, "
                          "callsite, and trace id")


@rule("memory-order",
      "every std::atomic load/store/RMW must spell an explicit "
      "std::memory_order weaker than seq_cst; seq_cst, defaulted or "
      "spelled, hides the intended contract")
def check_memory_order(analysis, src):
    text = src.text
    for m in ATOMIC_OP.finditer(text):
        end = _balanced_call(text, m.end() - 1)
        if end is None:
            continue
        args = text[m.end():end - 1]
        if "memory_order" in args:
            continue
        yield Finding(src.rel, src.line_of(m.start()), "memory-order",
                      f"atomic `{m.group(1)}` without an explicit "
                      f"std::memory_order argument; spell the ordering "
                      f"(relaxed for counters, acquire/release for "
                      f"handoffs)")
    for m in SEQ_CST.finditer(text):
        yield Finding(src.rel, src.line_of(m.start()), "memory-order",
                      "explicit seq_cst ordering; state the contract with "
                      "relaxed, acquire/release or acq_rel, or take a "
                      "cirank::Mutex where a total order is needed")


@rule("arena-discipline",
      "src/core query-scratch allocations flow through the per-query Arena, "
      "not raw new/delete or per-candidate make_unique")
def check_arena_discipline(analysis, src):
    if not src.rel.startswith("src/core/") or src.rel in ARENA_EXEMPT_FILES:
        return
    for i, line in enumerate(src.text.split("\n"), start=1):
        if RAW_NEW.search(line):
            yield Finding(src.rel, i, "arena-discipline",
                          "raw `new` in src/core; place per-query state in "
                          "ExecutionContext::arena() (or a container)")
        if RAW_DELETE.search(line) and not DELETED_FUNCTION.search(line):
            yield Finding(src.rel, i, "arena-discipline",
                          "raw `delete` in src/core; arena-placed state is "
                          "freed wholesale at query end")
        if PER_CANDIDATE_UNIQUE.search(line):
            yield Finding(src.rel, i, "arena-discipline",
                          "per-candidate std::make_unique in src/core; use "
                          "ExecutionContext::arena().New<T>() instead")


@rule("tree-scoring",
      "answer-tree scoring implementations (ScoreAnswer definitions) are "
      "confined to src/core's Ranker layer; everything else registers a "
      "factory or wraps a plain scorer in DelegatingRanker")
def check_tree_scoring(analysis, src):
    if src.rel.startswith("src/core/"):
        return
    for m in TREE_SCORING_DEF.finditer(src.text):
        yield Finding(src.rel, src.line_of(m.start()), "tree-scoring",
                      "ScoreAnswer definition outside src/core; implement "
                      "scoring as a core Ranker (RankerRegistry factory or "
                      "DelegatingRanker) so serving and eval share one "
                      "scoring path")


@rule("file-extension",
      "C++ sources use .cc and headers .h repo-wide")
def check_file_extension(analysis, src):
    if src.rel.endswith(tuple(f for f in
                              (".cpp", ".cxx", ".c++", ".hpp", ".hh",
                               ".hxx"))):
        yield Finding(src.rel, 1, "file-extension",
                      "C++ sources use .cc and headers .h in this repo; "
                      "rename (git mv) and update the CMake target")


@rule("include-guard",
      "header guards must be CIRANK_<PATH>_H_ derived from the file path")
def check_include_guard(analysis, src):
    if not src.rel.endswith(".h"):
        return
    guard = expected_guard(src.rel)
    m = re.search(r"^\s*#ifndef\s+(\S+)", src.text, re.M)
    if not m or m.group(1) != guard:
        found = m.group(1) if m else "<none>"
        yield Finding(src.rel, 1, "include-guard",
                      f"expected guard {guard}, found {found}")
    elif not re.search(r"^\s*#define\s+" + re.escape(guard) + r"\s*$",
                       src.text, re.M):
        yield Finding(src.rel, 1, "include-guard",
                      f"missing `#define {guard}`")


@rule("using-namespace",
      "`using namespace` is banned in headers (fine in .cc/.cpp)")
def check_using_namespace(analysis, src):
    if not src.rel.endswith(".h"):
        return
    for i, line in enumerate(src.text.split("\n"), start=1):
        if USING_NAMESPACE.search(line):
            yield Finding(src.rel, i, "using-namespace",
                          "banned in headers (pollutes every includer)")
