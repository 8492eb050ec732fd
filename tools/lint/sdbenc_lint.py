"""sdbenc-lint: repo-specific crypto-misuse static analysis.

Kühn's paper (and this repo's DESIGN.md) is a catalogue of crypto misuse
that type-checks and passes functional tests: deterministic CBC with a
zero IV, variable-time tag comparison, MAC checks whose result is ignored.
This pass enforces the repo invariants mechanically:

  SDB001  variable-time-compare   memcmp/== on tag, MAC, digest, checksum
                                  or keycheck buffers; must use
                                  sdbenc::ConstantTimeEquals.
  SDB002  fixed-iv-nonce          zero/constant IV, nonce or initial-counter
                                  literal outside src/schemes/ and
                                  src/attacks/ (the deliberately broken
                                  legacy schemes).
  SDB003  nonvetted-rng           rand()/srand/std::rand, raw
                                  std::random_device, mt19937, drand48 in
                                  library code; randomness must route
                                  through util/rng (sdbenc::Rng).
  SDB004  unchecked-status        a call to a repo function returning
                                  Status/StatusOr used as a bare
                                  expression statement (result discarded).
  SDB005  intrinsics-outside-accel SIMD intrinsics (#include <*intrin.h>,
                                  _mm_*/_mm256_*, __m128i/__m256i) outside
                                  the per-file-flag TUs in
                                  src/crypto/accel/.
  SDB006  fsync-outside-wal       raw fsync/fdatasync outside the WAL
                                  subsystem (src/storage/wal/). Durability
                                  points must route through the group
                                  committer so one fsync serves a whole
                                  batch; scattered syncs silently undo
                                  that amortisation (and can land before
                                  the write-ahead rule allows).
  SDB007  raw-sync-primitive      std::mutex / std::shared_mutex /
                                  std::condition_variable (or their
                                  headers) outside util/thread_annotations
                                  and util/lock_order; locking must use
                                  the capability-annotated wrappers so the
                                  Clang TSA build and the lock-order
                                  validator see it. Also flags a wrapped
                                  `*_mu_` member with no SDB_GUARDED_BY
                                  naming it anywhere in the file — a lock
                                  that guards nothing is either dead or
                                  (worse) guarding members it never
                                  declared.
  SDB008  predicate-less-cv-wait  condition_variable wait/wait_for/
                                  wait_until called without a predicate.
                                  Spurious wakeups are allowed by the
                                  standard; a bare wait is a latent hang
                                  or a lost-wakeup bug. (The sdbenc
                                  CondVar wrapper has no predicate
                                  overload by design — callers write the
                                  while-loop, which this rule cannot
                                  mis-flag because the wrapper methods are
                                  capitalised.)
  SDB009  planner-purity          a live-system read in the cost-based
                                  planner (src/query/planner.*):
                                  obs::Registry, NowNs, std::chrono
                                  clocks, hardware_concurrency or
                                  Parallelism. Plans must be a function of
                                  the statement and the table alone, so
                                  they reproduce on every host and one
                                  tenant's traffic cannot steer another
                                  tenant's plan.

Intentional violations (the legacy schemes exist to be broken) are
suppressed via an allowlist file; see allowlist.conf for the format and
the rationale for each entry. A stale allowlist entry (one that no longer
suppresses anything) is a hard failure: dead exemptions hide the next
real finding at the same path.

Stdlib-only on purpose: the container bakes in no clang python bindings,
and a tokenizer-level scan is enough for the rules above because the repo
style contract (DESIGN.md §5) keeps declarations regular.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

# --------------------------------------------------------------------------
# Findings and allowlist


@dataclasses.dataclass
class Finding:
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    rule: str  # "SDB001"...
    message: str
    snippet: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclasses.dataclass
class AllowEntry:
    rule: str
    path_prefix: str
    substring: str  # "" = whole file
    rationale: str
    used: bool = False

    def matches(self, finding: Finding, line_text: str) -> bool:
        if self.rule != "*" and self.rule != finding.rule:
            return False
        if not finding.path.startswith(self.path_prefix):
            return False
        if self.substring and self.substring not in line_text:
            return False
        return True


def parse_allowlist(path: str) -> list[AllowEntry]:
    """Parses `RULE  path[:substring]  -- rationale` lines.

    `#` starts a comment; blank lines are skipped. The rationale is
    mandatory: an exemption nobody can justify is a bug, not a policy.
    """
    entries: list[AllowEntry] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "--" not in line:
                raise ValueError(
                    f"{path}:{lineno}: allowlist entry missing '-- rationale'"
                )
            spec, rationale = (part.strip() for part in line.split("--", 1))
            if not rationale:
                raise ValueError(f"{path}:{lineno}: empty rationale")
            fields = spec.split(None, 1)
            if len(fields) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'RULE path[:substring]'"
                )
            rule, target = fields[0], fields[1].strip()
            if ":" in target:
                prefix, substring = target.split(":", 1)
            else:
                prefix, substring = target, ""
            entries.append(AllowEntry(rule, prefix, substring, rationale))
    return entries


# --------------------------------------------------------------------------
# Source preprocessing

_BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
_LINE_COMMENT = re.compile(r"//[^\n]*")
_STRING_LIT = re.compile(r'"(?:[^"\\\n]|\\.)*"')
_CHAR_LIT = re.compile(r"'(?:[^'\\\n]|\\.)*'")


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving newlines so
    line numbers survive. String literals are replaced by `""` and char
    literals by `' '` so the surrounding expression stays parseable."""

    def blank(match: re.Match, keep_quotes: str) -> str:
        body = match.group(0)
        replaced = "".join(ch if ch == "\n" else " " for ch in body)
        if keep_quotes and "\n" not in body:
            return keep_quotes
        return replaced

    text = _BLOCK_COMMENT.sub(lambda m: blank(m, ""), text)
    text = _LINE_COMMENT.sub(lambda m: blank(m, ""), text)
    text = _STRING_LIT.sub(lambda m: blank(m, '""'), text)
    text = _CHAR_LIT.sub(lambda m: blank(m, "' '"), text)
    return text


@dataclasses.dataclass
class SourceFile:
    path: str  # repo-relative
    raw_lines: list[str]
    clean: str  # comments/strings stripped, newlines preserved
    clean_lines: list[str]


def load_source(repo_root: str, rel_path: str) -> SourceFile:
    with open(os.path.join(repo_root, rel_path), "r", encoding="utf-8") as fh:
        raw = fh.read()
    clean = strip_comments_and_strings(raw)
    return SourceFile(
        path=rel_path.replace(os.sep, "/"),
        raw_lines=raw.split("\n"),
        clean=clean,
        clean_lines=clean.split("\n"),
    )


# --------------------------------------------------------------------------
# SDB001 — variable-time comparison of secret-carrying buffers

# Identifiers that name authentication material. Matched against the final
# component of the operand expression (`r.tag` -> `tag`), so
# `Peek().kind == TokenKind::kEnd` never trips on "token".
_SECRET_NAME = re.compile(
    r"(?:^|_)(tag|mac|hmac|cmac|digest|checksum|keycheck)s?$"
    r"|^(tag|mac|hmac|cmac|digest|checksum|keycheck)",
    re.IGNORECASE,
)

# Public metadata about a secret is fine to compare: lengths, sizes, names.
_PUBLIC_SUFFIX = re.compile(
    r"(?:_size|_len|_length|_name|_id|_kind|_type)$|^k[A-Z]",
)

_MEMCMP_CALL = re.compile(r"\b(?:std\s*::\s*)?(memcmp|bcmp)\s*\(")

# `a == b` / `a != b` with operand capture. Operands are a best-effort
# expression tail: identifier chains with ., ->, ::, (), [].
_OPERAND = r"[A-Za-z_][\w:]*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*|\(\s*\)|\[\w*\])*"
_EQ_COMPARE = re.compile(
    rf"(?P<lhs>{_OPERAND})\s*(?:==|!=)\s*(?P<rhs>{_OPERAND})"
)

_LAST_COMPONENT = re.compile(r"([A-Za-z_]\w*)\s*(?:\(\s*\)|\[\w*\])?\s*$")


def _final_name(expr: str) -> str:
    m = _LAST_COMPONENT.search(expr)
    return m.group(1) if m else ""


def _is_secret_operand(expr: str) -> bool:
    name = _final_name(expr)
    if not name:
        return False
    # `tag.size()` / `tag_size()` compare public metadata, not contents.
    if expr.rstrip().endswith(")") and (
        name in ("size", "length", "empty") or _PUBLIC_SUFFIX.search(name)
    ):
        return False
    if _PUBLIC_SUFFIX.search(name):
        return False
    return bool(_SECRET_NAME.search(name))


def check_variable_time_compare(src: SourceFile) -> list[Finding]:
    findings = []
    for i, line in enumerate(src.clean_lines, start=1):
        for m in _MEMCMP_CALL.finditer(line):
            # Inspect the argument text (rest of the line is enough for the
            # repo style: calls fit on <= 2 lines and the buffers are named
            # in the first).
            args = line[m.end():] + (
                src.clean_lines[i] if i < len(src.clean_lines) else ""
            )
            # Any path component counts: `expected_tag.data()` names the
            # secret in the first segment, not the last.
            segments = [
                seg
                for tok in re.findall(r"[A-Za-z_][\w.\->:]*", args)
                for seg in re.split(r"\.|->|::", tok)
            ]
            if any(
                _SECRET_NAME.search(seg) and not _PUBLIC_SUFFIX.search(seg)
                for seg in segments
                if seg
            ):
                findings.append(
                    Finding(
                        src.path,
                        i,
                        "SDB001",
                        f"{m.group(1)} on authentication material; use "
                        "sdbenc::ConstantTimeEquals (util/constant_time.h)",
                    )
                )
        for m in _EQ_COMPARE.finditer(line):
            if _is_secret_operand(m.group("lhs")) or _is_secret_operand(
                m.group("rhs")
            ):
                findings.append(
                    Finding(
                        src.path,
                        i,
                        "SDB001",
                        "variable-time ==/!= on authentication material; "
                        "use sdbenc::ConstantTimeEquals",
                    )
                )
    return findings


# --------------------------------------------------------------------------
# SDB002 — fixed/zero IV or nonce literals

_IV_NAME = re.compile(
    r"(?:^|_)(iv|nonce|initial_counter|counter0|j0)s?$|^(iv|nonce)_?",
    re.IGNORECASE,
)

# `Bytes iv(16, 0)`, `Bytes zero_iv(cipher.block_size(), 0)`,
# `uint8_t iv[16] = {0}`, `Bytes nonce = {0x00, ...}`, `Bytes nonce(12)`.
_DECL_FILL = re.compile(
    r"\b(?:Bytes|std::vector<\s*uint8_t\s*>)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*\(\s*(?P<size>[^,()]*(?:\([^()]*\))?[^,()]*)"
    r"\s*(?:,\s*(?P<fill>[^)]*))?\)"
)
_ARRAY_INIT = re.compile(
    r"\buint8_t\s+(?P<name>[A-Za-z_]\w*)\s*\[\s*\w*\s*\]\s*=\s*"
    r"\{(?P<init>[^}]*)\}"
)
_BRACE_INIT = re.compile(
    r"\b(?:Bytes|std::vector<\s*uint8_t\s*>)\s+(?P<name>[A-Za-z_]\w*)\s*"
    r"(?:=\s*)?\{(?P<init>[^}]*)\}"
)

_CONST_ONLY = re.compile(r"^[\s0-9a-fxX,]*$")


def _constant_init(text: str) -> bool:
    return bool(text is not None and _CONST_ONLY.match(text or ""))


def check_fixed_iv(src: SourceFile, exempt: bool) -> list[Finding]:
    if exempt:
        return []
    findings = []
    for i, line in enumerate(src.clean_lines, start=1):
        for m in _DECL_FILL.finditer(line):
            name = m.group("name")
            fill = m.group("fill")
            if not _IV_NAME.search(name):
                continue
            # `Bytes nonce(n)` value-initialises to zero; `(n, 0)` likewise.
            if fill is None or _constant_init(fill):
                findings.append(
                    Finding(
                        src.path,
                        i,
                        "SDB002",
                        f"'{name}' is a constant-filled IV/nonce; fresh "
                        "randomness must come from util/rng",
                    )
                )
        for rx in (_ARRAY_INIT, _BRACE_INIT):
            for m in rx.finditer(line):
                name = m.group("name")
                if _IV_NAME.search(name) and _constant_init(m.group("init")):
                    findings.append(
                        Finding(
                            src.path,
                            i,
                            "SDB002",
                            f"'{name}' is initialised from a constant "
                            "literal; fixed IVs/nonces break IND$-CPA",
                        )
                    )
    return findings


# --------------------------------------------------------------------------
# SDB003 — non-vetted randomness

_BAD_RNG = re.compile(
    r"\b(?:std\s*::\s*)?(rand|srand|drand48|lrand48|random)\s*\("
    r"|\b(?:std\s*::\s*)?(random_device|mt19937(?:_64)?|minstd_rand)\b"
)


def check_nonvetted_rng(src: SourceFile) -> list[Finding]:
    findings = []
    for i, line in enumerate(src.clean_lines, start=1):
        for m in _BAD_RNG.finditer(line):
            what = m.group(1) or m.group(2)
            findings.append(
                Finding(
                    src.path,
                    i,
                    "SDB003",
                    f"'{what}' is not a vetted randomness source; route "
                    "through sdbenc::Rng (util/rng.h)",
                )
            )
    return findings


# --------------------------------------------------------------------------
# SDB004 — discarded Status/StatusOr results

_STATUS_DECL = re.compile(
    r"^\s*(?:virtual\s+)?(?:static\s+)?"
    r"(?:::)?\s*(?:sdbenc\s*::\s*)?(?:util\s*::\s*)?"
    r"Status(?:Or\s*<[^;{=]*>)?\s+"
    r"(?:[A-Za-z_]\w*\s*::\s*)?(?P<name>[A-Za-z_]\w*)\s*\(",
    re.MULTILINE,
)

# Names too generic to flag on a bare call: wrappers/locals collide.
_STATUS_NAME_BLOCKLIST = {"Status", "StatusOr", "value", "status", "Ok"}

_STMT_PREFIX_OK = re.compile(
    r"(?:\breturn\b|=|\bco_return\b|\(void\)\s*$|[!<>+\-*/?:&|]\s*$"
    r"|\bif\b|\bwhile\b|\bfor\b|\bswitch\b|\bEXPECT|\bASSERT|\bCHECK"
    r"|SDBENC_RETURN_IF_ERROR|SDBENC_ASSIGN_OR_RETURN)"
)


def harvest_status_functions(sources: list[SourceFile]) -> set[str]:
    names: set[str] = set()
    for src in sources:
        for m in _STATUS_DECL.finditer(src.clean):
            name = m.group("name")
            if name not in _STATUS_NAME_BLOCKLIST:
                names.add(name)
    return names


# Any `Type [Class::]Name(` declaration/definition whose return type is not
# Status/StatusOr. Used to silence receiver-less calls to a same-named local
# function (e.g. Sha1State::Update(...) vs Table::Update -> StatusOr).
_ANY_DECL = re.compile(
    r"^\s*(?:virtual\s+|static\s+|inline\s+|constexpr\s+)*"
    r"(?P<type>[A-Za-z_][\w:<>*&]*)\s+"
    r"(?:[A-Za-z_]\w*\s*::\s*)?(?P<name>[A-Za-z_]\w*)\s*\(",
    re.MULTILINE,
)


def _local_nonstatus_decls(src: SourceFile) -> set[str]:
    names: set[str] = set()
    for m in _ANY_DECL.finditer(src.clean):
        if not m.group("type").startswith("Status"):
            names.add(m.group("name"))
    return names


def _line_start_depths(lines: list[str]) -> list[int]:
    """Cumulative ()/[] nesting depth at the start of each line, so that
    continuation lines of a multi-line call (e.g. the second line of an
    SDBENC_ASSIGN_OR_RETURN) are never treated as statement starts."""
    depths = []
    depth = 0
    for line in lines:
        depths.append(depth)
        for ch in line:
            if ch in "([":
                depth += 1
            elif ch in ")]" and depth > 0:
                depth -= 1
    return depths


def check_unchecked_status(
    src: SourceFile, status_fns: set[str]
) -> list[Finding]:
    if not status_fns:
        return []
    findings = []
    local_nonstatus = _local_nonstatus_decls(src)
    call_rx = re.compile(
        r"^(?P<indent>\s*)(?P<recv>[A-Za-z_][\w.]*(?:->|\.|::)\s*)?"
        r"(?P<name>" + "|".join(re.escape(n) for n in sorted(status_fns)) +
        r")\s*\("
    )
    lines = src.clean_lines
    depths = _line_start_depths(lines)
    for i, line in enumerate(lines, start=1):
        if depths[i - 1] > 0:
            continue  # continuation of an enclosing call/expression
        m = call_rx.match(line)
        if not m:
            continue
        before = line[: m.start("name")]
        # A receiver-less call to a name this file also declares with a
        # non-Status return type is (almost certainly) the local function.
        if m.group("recv") is None and m.group("name") in local_nonstatus:
            continue
        # Walk to the end of the statement (balance parens).
        depth = 0
        terminated = None
        for j in range(i - 1, min(i + 20, len(lines))):
            for ch in lines[j] if j > i - 1 else lines[j][m.start("name"):]:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                elif ch == ";" and depth == 0:
                    terminated = j
                    break
                elif ch == "{" and depth == 0:
                    terminated = None
                    break
            if terminated is not None or (
                depth == 0 and "{" in lines[j]
            ):
                break
        if terminated is None:
            continue  # definition header or unparseable: stay quiet
        if _STMT_PREFIX_OK.search(before):
            continue
        findings.append(
            Finding(
                src.path,
                i,
                "SDB004",
                f"result of '{m.group('name')}' (Status/StatusOr) is "
                "discarded; check it or cast to (void) with a comment",
            )
        )
    return findings


# --------------------------------------------------------------------------
# SDB005 — SIMD intrinsics outside the accel TUs

_INTRIN = re.compile(
    r"#\s*include\s*<\w*intrin\.h>"
    r"|\b_mm(?:\d{3})?_\w+\s*\("
    r"|\b__m(?:128|256|512)i?\b"
)


def check_intrinsics(src: SourceFile) -> list[Finding]:
    findings = []
    for i, line in enumerate(src.clean_lines, start=1):
        if _INTRIN.search(line):
            findings.append(
                Finding(
                    src.path,
                    i,
                    "SDB005",
                    "SIMD intrinsics outside src/crypto/accel/ per-file-flag "
                    "TUs; portable code must not carry ISA requirements",
                )
            )
    return findings


# --------------------------------------------------------------------------
# SDB006 — raw durability syscalls outside the WAL subsystem

_FSYNC_CALL = re.compile(r"\b(?:::\s*)?(fsync|fdatasync)\s*\(")


def check_fsync_outside_wal(src: SourceFile, exempt: bool) -> list[Finding]:
    if exempt:
        return []
    findings = []
    for i, line in enumerate(src.clean_lines, start=1):
        for m in _FSYNC_CALL.finditer(line):
            findings.append(
                Finding(
                    src.path,
                    i,
                    "SDB006",
                    f"'{m.group(1)}' outside src/storage/wal/; durability "
                    "must route through the group committer (or be "
                    "allowlisted as a checkpoint/recovery sync point)",
                )
            )
    return findings


# --------------------------------------------------------------------------
# SDB007 — raw std sync primitives outside the annotated wrappers

_RAW_SYNC = re.compile(
    r"\bstd\s*::\s*(mutex|shared_mutex|recursive_mutex|timed_mutex"
    r"|recursive_timed_mutex|condition_variable(?:_any)?)\b"
    r"|#\s*include\s*<(mutex|shared_mutex|condition_variable)>"
)

# A wrapped mutex member following the `*_mu_` naming convention. Plain
# `mu` struct fields (stripe/shard latches) are covered by their guards
# but not by this declaration check — the trailing underscore is what
# marks the repo's member-guard convention.
_WRAPPED_MU_DECL = re.compile(
    r"\b(?:Mutex|SharedMutex)\s+(?P<name>[A-Za-z_]\w*mu_)\b"
)


def check_raw_sync_primitive(src: SourceFile, exempt: bool) -> list[Finding]:
    if exempt:
        return []
    findings = []
    for i, line in enumerate(src.clean_lines, start=1):
        for m in _RAW_SYNC.finditer(line):
            what = m.group(1) or f"<{m.group(2)}>"
            findings.append(
                Finding(
                    src.path,
                    i,
                    "SDB007",
                    f"raw std sync primitive '{what}'; use the "
                    "capability-annotated wrappers in "
                    "util/thread_annotations.h so the Clang TSA build and "
                    "the lock-order validator cover it",
                )
            )
    seen_guards = set(
        re.findall(r"SDB_GUARDED_BY\s*\(([^)]*)\)", src.clean)
    )
    for i, line in enumerate(src.clean_lines, start=1):
        for m in _WRAPPED_MU_DECL.finditer(line):
            name = m.group("name")
            if any(
                re.search(rf"\b{re.escape(name)}\b", g) for g in seen_guards
            ):
                continue
            findings.append(
                Finding(
                    src.path,
                    i,
                    "SDB007",
                    f"mutex member '{name}' has no SDB_GUARDED_BY({name}) "
                    "in this file; annotate what it guards (or drop the "
                    "lock if it guards nothing)",
                )
            )
    return findings


# --------------------------------------------------------------------------
# SDB008 — condition-variable wait without a predicate

_CV_WAIT = re.compile(r"\.\s*(wait|wait_for|wait_until)\s*\(")


def _count_top_level_args(clean: str, open_paren: int) -> int | None:
    """Number of comma-separated arguments of the call whose '(' is at
    `open_paren`; None when the call never closes (unparseable)."""
    depth = 0
    commas = 0
    saw_token = False
    for idx in range(open_paren, len(clean)):
        ch = clean[idx]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                if not saw_token and commas == 0:
                    return 0
                return commas + 1
        elif ch == "," and depth == 1:
            commas += 1
        elif depth == 1 and not ch.isspace():
            saw_token = True
    return None


def check_cv_wait_predicate(src: SourceFile, exempt: bool) -> list[Finding]:
    if exempt:
        return []
    findings = []
    for m in _CV_WAIT.finditer(src.clean):
        method = m.group(1)
        nargs = _count_top_level_args(src.clean, m.end() - 1)
        if nargs is None:
            continue
        # wait(lock) / wait_for(lock, dur) / wait_until(lock, tp) lack the
        # predicate argument that absorbs spurious wakeups.
        required = 2 if method == "wait" else 3
        if nargs >= required:
            continue
        line = src.clean.count("\n", 0, m.start()) + 1
        findings.append(
            Finding(
                src.path,
                line,
                "SDB008",
                f"'{method}' without a predicate: spurious wakeups make "
                "this a latent hang; pass a predicate (or loop on the "
                "condition)",
            )
        )
    return findings


# --------------------------------------------------------------------------
# SDB009 — live-system inputs in the cost-based planner

_PLANNER_FILES = ("src/query/planner.h", "src/query/planner.cc")

_LIVE_INPUT = re.compile(
    r"\bobs\s*::\s*Registry\b"
    r"|\bNowNs\b"
    r"|\b(?:steady|system|high_resolution)_clock\b"
    r"|\bhardware_concurrency\b"
    r"|\bParallelism\b"
)


def check_planner_purity(src: SourceFile) -> list[Finding]:
    if src.path not in _PLANNER_FILES:
        return []
    findings = []
    for i, line in enumerate(src.clean_lines, start=1):
        for m in _LIVE_INPUT.finditer(line):
            what = re.sub(r"\s+", "", m.group(0))
            findings.append(
                Finding(
                    src.path,
                    i,
                    "SDB009",
                    f"live-system input '{what}' in the planner; plans "
                    "must depend only on the statement and the table's "
                    "stats, schema, index order and codec",
                )
            )
    return findings


# --------------------------------------------------------------------------
# Driver

# Directories whose whole purpose is to reproduce the broken legacy
# constructions (paper §2–§3). SDB002 does not apply there by design;
# everything else still does.
_LEGACY_DIR_PREFIXES = ("src/schemes/", "src/attacks/")

# The one place raw fsync/fdatasync is policy rather than a smell: the WAL
# committer, whose whole job is issuing the shared group-commit sync.
_WAL_DIR_PREFIXES = ("src/storage/wal/",)

# The wrappers themselves (and the validator they call into) are the only
# TUs allowed to hold raw std sync primitives — everything else goes
# through them. CondVar::Wait's internal adopt-lock dance is also why
# these files are exempt from SDB008.
_SYNC_WRAPPER_FILES = (
    "src/util/thread_annotations.h",
    "src/util/lock_order.h",
    "src/util/lock_order.cc",
)


def lint_files(
    repo_root: str,
    rel_paths: list[str],
    allow: list[AllowEntry],
) -> tuple[list[Finding], list[Finding]]:
    """Returns (reported, suppressed)."""
    sources = [load_source(repo_root, p) for p in rel_paths]
    status_fns = harvest_status_functions(sources)
    reported: list[Finding] = []
    suppressed: list[Finding] = []
    for src in sources:
        legacy = src.path.startswith(_LEGACY_DIR_PREFIXES)
        wrapper = src.path in _SYNC_WRAPPER_FILES
        findings = []
        findings += check_variable_time_compare(src)
        findings += check_fixed_iv(src, exempt=legacy)
        findings += check_nonvetted_rng(src)
        findings += check_unchecked_status(src, status_fns)
        findings += check_intrinsics(src)
        findings += check_fsync_outside_wal(
            src, exempt=src.path.startswith(_WAL_DIR_PREFIXES)
        )
        findings += check_raw_sync_primitive(src, exempt=wrapper)
        findings += check_cv_wait_predicate(src, exempt=wrapper)
        findings += check_planner_purity(src)
        for f in findings:
            line_text = (
                src.raw_lines[f.line - 1]
                if 0 < f.line <= len(src.raw_lines)
                else ""
            )
            f.snippet = line_text.strip()
            entry = next(
                (e for e in allow if e.matches(f, line_text)), None
            )
            if entry is not None:
                entry.used = True
                suppressed.append(f)
            else:
                reported.append(f)
    reported.sort(key=lambda f: (f.path, f.line, f.rule))
    return reported, suppressed


def collect_sources(repo_root: str, roots: list[str]) -> list[str]:
    rel_paths = []
    for root in roots:
        abs_root = os.path.join(repo_root, root)
        if os.path.isfile(abs_root):
            rel_paths.append(os.path.relpath(abs_root, repo_root))
            continue
        for dirpath, _, filenames in os.walk(abs_root):
            for name in sorted(filenames):
                if name.endswith((".cc", ".h")):
                    rel_paths.append(
                        os.path.relpath(
                            os.path.join(dirpath, name), repo_root
                        )
                    )
    return sorted(set(rel_paths))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "paths",
        nargs="*",
        default=[],
        help="files or directories to lint, relative to --repo-root "
        "(default: src/)",
    )
    parser.add_argument("--repo-root", default=".")
    parser.add_argument(
        "--allowlist",
        default=None,
        help="allowlist file (default: tools/lint/allowlist.conf under "
        "the repo root; pass /dev/null to disable)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by the allowlist",
    )
    args = parser.parse_args(argv)

    repo_root = os.path.abspath(args.repo_root)
    roots = args.paths or ["src"]
    allow_path = args.allowlist or os.path.join(
        repo_root, "tools", "lint", "allowlist.conf"
    )
    allow = (
        parse_allowlist(allow_path) if os.path.exists(allow_path) else []
    )

    rel_paths = collect_sources(repo_root, roots)
    if not rel_paths:
        print("sdbenc-lint: no sources found", file=sys.stderr)
        return 2

    reported, suppressed = lint_files(repo_root, rel_paths, allow)

    for f in reported:
        print(f.render())
        if f.snippet:
            print(f"    {f.snippet}")
    if args.show_suppressed:
        for f in suppressed:
            print(f"suppressed: {f.render()}")
    # A stale entry is a hard failure, not a warning: a dead exemption
    # silently covers the next real finding introduced at the same path.
    stale = [e for e in allow if not e.used]
    for e in stale:
        print(
            "sdbenc-lint: error: stale allowlist entry "
            f"'{e.rule} {e.path_prefix}' suppresses nothing; remove it",
            file=sys.stderr,
        )

    print(
        f"sdbenc-lint: {len(rel_paths)} files, {len(reported)} finding(s), "
        f"{len(suppressed)} suppressed, {len(stale)} stale allowlist "
        "entr(y/ies)"
    )
    return 1 if reported or stale else 0


if __name__ == "__main__":
    sys.exit(main())
