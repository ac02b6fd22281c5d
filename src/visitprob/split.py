"""Evaluate the interior masses of one large distribution in two processes,
bit for bit.

Every interior P(N1 = k | N) of the closed form reads only the evaluator's
power tables and, in FLOAT and LOGSPACE, binomial rows k-1 and N-k-1, which
only the mass N-k also reads, so the pairs (m, N-m) are independent work.
:func:`split_masses` forks one child that evaluates half of the pairs with
the same evaluator and sends their raw masses back through a pipe as plain
ints or floats (integer numerators, values or logs), which the caller turns
into ``ProbValue``s as it does its own.  So each mass is the one the serial
pair loop gives.  ``closed_form`` imports this module only for horizons
large enough for FLOAT and LOGSPACE to gain from it.
"""

from __future__ import annotations

import marshal
import os
import signal
import sys

from visitprob.closed_form import _pair_masses

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


def split_masses(ev) -> dict:
    """{k: raw P(N1 = k)} for 0 < k < n from the closed-form evaluator
    ``ev``, as ``closed_form._pair_masses`` gives them, the pairs (m, n-m)
    with odd m computed by one forked child.

    In FLOAT and LOGSPACE pair m has about 3 * m terms and builds
    2 * m + 1 binomial-row entries, so alternate pairs give both processes,
    to within 3 terms and 2 row entries per pair, half of the work.  In
    EXACT each process runs the pair-sum recurrence through every m up to
    its last and takes the masses of its own pairs only, each by
    ``closed_form._Evaluator._factored`` with one full-size product; the
    recurrence and the parent's ``Fraction``s are not shared.  The child
    sends its ``{k: raw}`` through a pipe with ``marshal``.  If it fails
    or dies, this process computes its share too, so the caller sees the
    serial pair loop's result or exception; if this process raises, the
    child is killed and reaped.  Without a free second CPU (see
    :func:`_can_split`) or when the fork fails, every pair is computed
    here.
    """
    pairs = range(1, ev.n // 2 + 1)
    if not _can_split():
        return _pair_masses(ev, pairs)
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return _pair_masses(ev, pairs)
    if pid == 0:
        # os._exit, not exit: no atexit handler runs, and the stdio buffers
        # copied from the parent are never flushed a second time.
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(_pair_masses(ev, pairs[::2])))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            masses = _pair_masses(ev, pairs[1::2])
            # Read to EOF before waitpid: a payload of integer numerators can
            # outgrow the pipe buffer, and the child blocks until it is read.
            payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    masses.update(marshal.loads(payload) if status == 0 else _pair_masses(ev, pairs[::2]))
    return masses
