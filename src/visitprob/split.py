"""Evaluate one large distribution in two processes, bit for bit.

Every P(target = k | N) of the closed form reads only the evaluator's power
tables and, in FLOAT and LOGSPACE, binomial rows k-1 and N-k-1, so the N+1
masses are independent work.  :func:`split_masses` forks one child that
evaluates half of them with the same evaluator and sends the raw payloads
back through a pipe, so each mass is the one the serial loop gives.  ``closed_form`` imports this
module only for horizons large enough to gain from it.
"""

from __future__ import annotations

import marshal
import os
import signal
import sys
from fractions import Fraction

from visitprob.chain_model import State
from visitprob.numerics import NumericMode, ProbValue

__all__ = ["split_masses"]


def _can_split() -> bool:
    """Whether a forked child can run beside this process: ``os.fork``
    exists, two CPUs are usable, and no other thread is alive (a forked child
    has only the forking thread, and locks held by others stay held)."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    # Ask threading only if it is loaded: importing it here would slow start-up.
    threading = sys.modules.get("threading")
    return cpus >= 2 and (threading is None or threading.active_count() == 1)


def _masses(ev, ks, target: State) -> list[ProbValue]:
    return [ev.visit_probability(k, target) for k in ks]


def _paired_ks(ms: range, n: int) -> list[int]:
    """k = m and k = n-m for each m in ``ms``: in FLOAT and LOGSPACE both
    read binomial rows m-1 and n-m-1, so the process that computes one
    builds its rows for both."""
    return [k for m in ms for k in ((m, n - m) if 2 * m < n else (m,))]


def split_masses(ev, target: State) -> list[ProbValue]:
    """P(target = k) for k = 0..n from the closed-form evaluator ``ev``, the
    pairs (m, n-m) with odd m computed by one forked child.

    Each k has about 4 * min(k, n-k) terms, and each pair (in FLOAT and
    LOGSPACE) reads two binomial rows of n entries together, so alternate
    pairs give both processes half the rows and, to within n/2, half of the
    sum of min(k, n-k).  The child sends raw payloads through a pipe with
    ``marshal``.  If it fails or dies, this process computes its share too,
    so the caller sees the serial loop's result or exception; if this
    process raises, the child is killed and reaped.  Without a free second
    CPU (see :func:`_can_split`) or when the fork fails, every mass is
    computed here.
    """
    n, mode = ev.n, ev.mode
    if not _can_split():
        return _masses(ev, range(n + 1), target)
    ours = _paired_ks(range(0, n // 2 + 1, 2), n)
    theirs = _paired_ks(range(1, n // 2 + 1, 2), n)
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return _masses(ev, range(n + 1), target)
    if pid == 0:
        # os._exit, not exit: no atexit handler runs, and the stdio buffers
        # copied from the parent are never flushed a second time.
        try:
            os.close(read_fd)
            values = [m.value for m in _masses(ev, theirs, target)]
            if mode is NumericMode.EXACT:
                values = [(v.numerator, v.denominator) for v in values]
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(values))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            own = _masses(ev, ours, target)
            # Read to EOF before waitpid: an EXACT payload can outgrow the
            # pipe buffer, and the child blocks until it is read.
            payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if status == 0:
        values = marshal.loads(payload)
        if mode is NumericMode.EXACT:
            values = [Fraction(*v) for v in values]
        other = [ProbValue(mode, v) for v in values]
    else:
        other = _masses(ev, theirs, target)
    by_k = dict(zip(ours, own))
    by_k.update(zip(theirs, other))
    return [by_k[k] for k in range(n + 1)]
