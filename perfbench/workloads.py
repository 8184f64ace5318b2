"""The benchmark's workloads and the checks on their output.

Each workload is one ``plates-olives`` command.  Its output is checked two
ways: the SHA-256 of stdout must equal the digest pinned from the seed
commit, and semantic checks that do not depend on the digest must hold.
Exact counting has no random input, so the commands are fixed; the
benchmark seed only orders the child processes of a run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

# M_0 .. M_6, the game counts the semantic checks compare against.
GAME_COUNTS = (1, 2, 10, 76, 772, 9856, 152099)
M_18 = 192006280895048080286802


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    # the layer whose per-layer metrics are read from this workload's traced run
    layer: str
    digest: str


WORKLOADS = (
    Workload(
        name="count-first-return",
        argv=("count", "--max-n", "30"),
        layer="counting",
        digest="30a81fc8d5a2b0558a53cfcb2c602c5ecf446bcc4c50934e09cd557374032b4f",
    ),
    Workload(
        name="oracle-histogram",
        argv=("enumerate", "--n", "6", "--emit", "histogram"),
        layer="games",
        digest="918a180bdbf859ec5ad4439d31461c1ce6197da8c0bfc95b1ad77a005a1d47f4",
    ),
    Workload(
        name="verify-all",
        argv=("verify",),
        layer="verify",
        digest="90cd3593a4ad40510ceb4806c32e65f08df3e238d96cefd225fb6f2b5db13394",
    ),
)

# The same three layers on tiny inputs, for the harness self-test.
TINY_WORKLOADS = (
    Workload(
        name="count-first-return",
        argv=("count", "--max-n", "6"),
        layer="counting",
        digest="fde3d43073175e801e55d2c4b922182ec2773f87a41d5b5a37685ead5ea1328a",
    ),
    Workload(
        name="oracle-histogram",
        argv=("enumerate", "--n", "3", "--emit", "histogram"),
        layer="games",
        digest="d43807525e23fd9b0f65412ae0122ccd9cca6f9553180113c1d33a9f9514cebd",
    ),
    Workload(
        name="verify-all",
        argv=("verify", "--suite", "paper-values"),
        layer="verify",
        digest="b6e26d1ce84e4ac24419b9cef05df6e083f9691364ca8a45b3e4690a8198499b",
    ),
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def _option(argv: tuple[str, ...], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def _check_count(argv: tuple[str, ...], stdout: str) -> list[str]:
    max_n = _option(argv, "--max-n")
    lines = stdout.splitlines()
    if not lines or lines[0].split() != ["n", "count"]:
        return ["count: missing header"]
    try:
        rows = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    except ValueError:
        return ["count: unparsable row"]
    if [r[0] for r in rows] != list(range(max_n + 1)) or any(len(r) != 2 for r in rows):
        return [f"count: rows are not n = 0..{max_n}"]
    counts = [r[1] for r in rows]
    problems = []
    if tuple(counts[:5]) != GAME_COUNTS[:5]:
        problems.append(f"count: rows 0-4 are {counts[:5]}")
    if max_n >= 18 and counts[18] != M_18:
        problems.append(f"count: M_18 is {counts[18]}")
    low = [n for n, c in enumerate(counts) if c < _double_factorial(2 * n - 1)]
    if low:
        problems.append(f"count: M_n < (2n-1)!! at n = {low}")
    return problems


def _check_histogram(argv: tuple[str, ...], stdout: str) -> list[str]:
    n = _option(argv, "--n")
    lines = stdout.splitlines()
    if not lines or lines[0] != "v_f,v_l,p_s,p_c,count":
        return ["histogram: missing header"]
    try:
        rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    except ValueError:
        return ["histogram: unparsable row"]
    if any(len(r) != 5 for r in rows):
        return ["histogram: rows need five fields"]
    problems = []
    total = sum(r[4] for r in rows)
    if total != GAME_COUNTS[n]:
        problems.append(f"histogram: rows sum to {total}, not {GAME_COUNTS[n]}")
    for v_f, v_l, p_s, p_c, _ in rows:
        if v_f + v_l + p_s + p_c != n or p_c > v_f:
            problems.append(f"histogram: bad row {(v_f, v_l, p_s, p_c)}")
    return problems


def _check_verify(argv: tuple[str, ...], stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if not lines or lines[-1] != "OK: 0 failed":
        return ["verify: last line is not 'OK: 0 failed'"]
    if not all(line.startswith("PASS [") for line in lines[:-1]):
        return ["verify: a check line is not PASS"]
    return []


_CHECKS = {"count": _check_count, "enumerate": _check_histogram, "verify": _check_verify}


def check(workload: Workload, rc: int | None, stdout: str) -> list[str]:
    """Every reason the operation's result is wrong; empty when it is right."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if digest(stdout) != workload.digest:
        problems.append("stdout digest differs from the pinned one")
    return problems + _CHECKS[workload.argv[0]](workload.argv, stdout)
