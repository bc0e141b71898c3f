"""Numerical certification of the operator inequalities and moment identities.

Every check runs through one of two drivers.  `_worst_case` draws the samples
of an operator inequality in blocks from one seeded generator and judges the
worst violation its kernel reports against a declared tolerance (a theorem's
violation beyond rounding is an implementation bug).  `_per_path` draws at
least 2 Monte Carlo paths from per-path Philox streams in blocks and returns
one row per path, which the check reduces once over all paths; a row depends
on its own path alone, so results depend on neither scheduling nor block size.
Its fill loop makes one `sample_path` call per path, in path order, and
gathers each chunk of `_FILL` paths with one `np.concatenate` into a
path-major chunk, which one transposed assignment copies into the step-major
block: no per-path index arithmetic and no per-path copy call.

Both `_per_path`'s blocks and `run_inequality_suite`'s dimensions are tasks of
`_fan_out`, which runs them in forked processes over the usable CPUs: each
process runs one fixed task first, then claims the others in ascending order
from one shared queue pipe whenever it is free, so the costliest tasks go
first (`run_inequality_suite` hands over the largest dimension first).  Which
process runs a task changes from run to run, but the results come back in task
order, so every report has the bits of a run in one process.  Restricting
the CPU affinity (`taskset -c 0`) keeps the whole run in one process.

Sampling conventions: a random symmetric matrix has independent Gaussian
entries on and above the diagonal, N(0, 1) on it and N(0, 1/2) off it, the law
of (R + R^T)/2 for a standard Gaussian R; a unit vector is uniform on the
sphere.  For such a matrix A and a unit x, A x ~ N(0, (I + x x^T)/2), so a
check that reads A only through A x draws that vector instead, from d normals
w: A x = sqrt(1/2) w + (1 - sqrt(1/2)) (w.x) x.  The integral Cauchy check
`check_prop_cauchy` does: x first, then one such vector per step.
`check_inq_nice`, (x^T A x)^2 <= x^T A^2 x, is its one-step case and runs its
kernel with n = 1.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import select
import signal
import warnings
from dataclasses import dataclass

import numpy as np

from .brownian import TimeGrid, sample_path
from .integrals import MatrixProcess, isometry_rhs
from .sde import SdeModel, euler_final_states
from .symmat import SymmetricMatrix, min_eigenvalues_stack

__all__ = [
    "CheckReport",
    "random_symmetric_stack",
    "random_unit_stack",
    "check_inq2",
    "check_inq_nice",
    "check_prop_cauchy",
    "mc_isometry",
    "estimate_lemma_beta",
    "mc_trace_moment",
    "run_inequality_suite",
]

_BLOCK = 4096  # inequality samples per block; `verify`'s draws depend on it
_PATH_BLOCK = 2048  # Monte Carlo paths per block; results do not depend on it
_FILL = 64  # paths drawn path-major, then copied into the step-major block at once


@dataclass
class CheckReport:
    """Outcome of one check: worst violation vs a declared tolerance."""

    name: str
    samples: int
    worst_violation: float
    tolerance: float
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "samples": self.samples, "worst_violation": self.worst_violation,
                "tolerance": self.tolerance, "pass": self.passed, "details": self.details}


def random_symmetric_stack(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """`count` exactly symmetric d x d matrices from count * d(d + 1)/2 normals,
    one per upper-triangle entry in row-major order, off the diagonal scaled
    by sqrt(1/2); both triangles hold the same bits."""
    rows, cols = np.triu_indices(d)
    # the stack is allocated before its draw: drawn first, the 1.2 MB draw of
    # `check_inq2` at d = 8 left a heap hole that its 2 MB stacks could not
    # reuse, which raised `verify`'s peak RSS by 1.7 MB
    stack = np.empty((count, d, d))
    upper = rng.standard_normal((count, rows.size))
    upper *= np.where(rows == cols, 1.0, np.sqrt(0.5))
    position = np.empty((d, d), dtype=np.intp)
    position[rows, cols] = position[cols, rows] = np.arange(rows.size)
    # C-ordered, which `check_inq2`'s BLAS products take their bits from;
    # the faster gather `upper[:, position]` gives F-ordered strides
    return np.take(upper, position, axis=1, out=stack)


def random_unit_stack(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    raw = rng.standard_normal((count, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _blocks(total: int, block: int = _BLOCK):
    if total < 1:
        raise ValueError(f"sample count must be a positive integer, got {total}")
    for start in range(0, total, block):
        yield min(block, total - start)


def _worst_case(name: str, tol: float, samples: int, seed: int, details: dict,
                violations, block: int = _BLOCK) -> CheckReport:
    """Worst of `violations(rng, count)` over `samples` seeded samples, in blocks."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for count in _blocks(samples, block):
        block_worst = float(violations(rng, count).max())
        if not np.isfinite(block_worst):  # max() would pass a NaN over
            raise ValueError(f"{name}: a block's worst violation is not finite ({block_worst!r})")
        worst = max(worst, block_worst)
    return CheckReport(name, samples, worst, tol, worst <= tol,
                       details={**details, "seed": seed})


def check_inq2(samples: int, d: int, seed: int) -> CheckReport:
    """(A + B)^2 <= 2A^2 + 2B^2: smallest eigenvalue of the gap stays >= -1e-10."""
    def violations(rng, count):
        a = random_symmetric_stack(rng, count, d)
        b = random_symmetric_stack(rng, count, d)
        # 2 A^2 + 2 B^2 - (A + B)^2 in place, the plain expression's operations in
        # its order, so the kernel holds four block stacks instead of about ten
        gap, spent = a @ a, b @ b
        gap *= 2.0
        spent *= 2.0
        gap += spent
        s = np.add(a, b, out=b)
        gap -= np.matmul(s, s, out=spent)
        del a, b, s
        sym = np.add(gap, gap.transpose(0, 2, 1), out=spent)
        sym *= 0.5
        return -min_eigenvalues_stack(sym)

    return _worst_case("inq2", 1e-10, samples, seed, {"dim": d}, violations)


def _random_images(rng: np.random.Generator, x: np.ndarray, n: int) -> np.ndarray:
    """A_k x for n independent random symmetric A_k per unit x of the (count, d)
    stack x: a (count, n, d) array from count * n * d normals w, in that order,
    set to sqrt(1/2) w + (1 - sqrt(1/2)) (w.x) x ~ N(0, (I + x x^T)/2)."""
    count, d = x.shape
    ax = rng.standard_normal((count, n, d))  # w, then A x in place
    # each entry gets the operations of the (count, n, d) broadcast
    # `sqrt(1/2) w + ((1 - sqrt(1/2)) (w.x))[..., None] x`, in that order, so the
    # same bits, but over the whole draw and then one entry plane at a time
    along = np.einsum("mki,mi->mk", ax, x)
    along *= 1.0 - np.sqrt(0.5)
    ax *= np.sqrt(0.5)
    step = np.empty_like(along)
    for i in range(d):
        ax[..., i] += np.multiply(along, x[:, None, i], out=step)
    return ax


def _cauchy(name: str, tol: float, samples: int, d: int, n: int, seed: int,
            details: dict) -> CheckReport:
    """Worst of (sum_k x^T A_k x dt)^2 - sum_k x^T A_k^2 x dt, dt = 1 / n, over a
    unit x and n random symmetric A_k, each read only through A_k x."""
    dt = 1.0 / n

    def violations(rng, count):
        x = random_unit_stack(rng, count, d)
        ax = _random_images(rng, x, n)
        lin = np.einsum("mi,mki->m", x, ax) * dt
        return lin * lin - np.einsum("mki,mki->m", ax, ax) * dt

    return _worst_case(name, tol, samples, seed, details, violations,
                       block=max(1, _BLOCK // max(1, n // 8)))


def check_inq_nice(samples: int, d: int, seed: int) -> CheckReport:
    """(x^T A x)^2 <= x^T A^2 x for unit x, to within 1e-12: the integral Cauchy
    check at one step of length 1."""
    return _cauchy("inq_nice", 1e-12, samples, d, 1, seed, {"dim": d})


def check_prop_cauchy(process_samples: int, d: int, n: int, seed: int) -> CheckReport:
    """Integral Cauchy inequality on piecewise-constant matrix processes on [0, 1].

    Verifies sum_k x^T A_k^2 x dt - (sum_k x^T A_k x dt)^2 >= -1e-10, dt = 1 / n,
    the discrete form whose refinement limit is the continuous inequality.
    """
    return _cauchy("prop_cauchy", 1e-10, process_samples, d, n, seed, {"dim": d, "steps": n})


def _usable_cpus() -> int:
    """The CPUs this process may run on, 1 where the platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return 1


def _claims(queue: int):
    """Task indices read from the queue pipe, whose write end is closed, until it
    is empty; a 4-byte read, at most PIPE_BUF, takes one whole index."""
    while claim := os.read(queue, 4):
        yield int.from_bytes(claim, "little")


def _run(tasks: list, claims):
    """Run tasks[i] for each i that `claims` yields, and yield (i, raised, its
    result or exception, its warnings) after each; stop after the first task
    that raises."""
    for i in claims:
        with warnings.catch_warnings(record=True) as caught:
            try:
                value, raised = tasks[i](), False
            except Exception as exc:
                value, raised = exc, True
        yield i, raised, value, [(w.message, w.category, w.filename, w.lineno) for w in caught]
        if raised:
            return


def _fork_worker(tasks: list, first: int, queue: int):
    """(pid, read end of its pipe) of a forked child that runs tasks[first], then
    the tasks it claims from the queue, and pickles back what `_run` yielded;
    None when no pipe or process can be had."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid:
        os.close(write)
        return pid, read
    code = 1  # the child never returns: it leaves through os._exit, reported or not
    try:
        os.close(read)
        entries = list(_run(tasks, itertools.chain([first], _claims(queue))))
        report = pickle.dumps(entries, pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(report)
        code = 0
    finally:
        os._exit(code)


def _fan_out(tasks) -> list:
    """The results of the argument-free `tasks`, in task order, over the usable CPUs.

    With k = min(len(tasks), usable CPUs) >= 2, tasks k, k + 1, ... go into one
    queue pipe, as far as it holds them, whose write end is closed before
    forked children j = 1..k-1 start.  Child j runs task j - 1 first, and this
    process task k - 1 with those of any child that could not be started (a
    process or descriptor limit).  Then every process claims queued tasks in
    ascending order until the queue is empty, so the costliest tasks should
    come first; the tasks the pipe could not hold run here after it.  Each
    process stops at its first exception.  Every task before the first
    exception in task order runs, so that one is raised, as a sequential run
    raises it, and the warnings of the tasks up to it are issued here in task
    order, a repeated one once.  Every child is reaped before this returns or
    raises, and killed first when this leaves without its reports.  With one
    task or one usable CPU, or no queue pipe, every task runs here.
    """
    tasks = list(tasks)
    k = min(len(tasks), _usable_cpus())
    if k < 2:
        return [task() for task in tasks]
    try:
        queue, feed = os.pipe()
    except OSError:  # a descriptor limit: no child could claim a task
        return [task() for task in tasks]
    entries = []  # what `_run` yielded, in every process
    workers = {}  # pid: read end of its pipe, for each child not yet reaped
    reported = False
    try:
        rest, queued = np.arange(k, len(tasks), dtype="<u4").tobytes(), 0
        with open(feed, "wb", buffering=0) as pipe:  # raw: a write to a full pipe returns None
            os.set_blocking(feed, False)
            # whole chunks, as a write of at most PIPE_BUF bytes is never split
            while queued < len(rest) and (sent := pipe.write(rest[queued:][:select.PIPE_BUF])):
                queued += sent
        for j in range(1, k):
            worker = _fork_worker(tasks, j - 1, queue)
            if worker is None:
                break
            workers[worker[0]] = worker[1]
        entries.extend(_run(tasks, itertools.chain(range(len(workers), k), _claims(queue),
                                                   range(k + queued // 4, len(tasks)))))
        for pid, read in list(workers.items()):
            with open(read, "rb", closefd=False) as pipe:
                report = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(workers.pop(pid))
            if code:
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"worker process {pid} ended without a report ({how})")
            entries.extend(pickle.loads(report))
        reported = True
    finally:
        os.close(queue)
        for pid, read in workers.items():
            if not reported:  # an unreaped child, running or not, can be signalled
                os.kill(pid, signal.SIGKILL)
            os.close(read)
            os.waitpid(pid, 0)
    entries.sort(key=lambda entry: entry[0])
    out, shown = [], {}  # one registry, so a repeated warning shows once, as in one process
    for i, (claimed, raised, value, caught) in enumerate(entries):
        if claimed != i:  # the queue gave an index twice, or lost one
            break
        for warning in caught:
            warnings.warn_explicit(*warning, registry=shown)
        if raised:
            raise value
        out.append(value)
    if not len(out) == len(entries) == len(tasks):
        raise RuntimeError(f"task {len(out)}, or the one before it, did not run exactly once")
    return out


def _per_path(name: str, grid: TimeGrid, dim: int, seed: int, n_paths: int, values) -> np.ndarray:
    """Rows of Philox paths 0..n_paths-1 in path order: `values(inc)` gives one row
    per path of `inc`, a step-major (steps, count, d, d) block of increments that
    the next block overwrites, and a row must depend on its own path alone.
    Each block is one task of `_fan_out`; each process fills its own copy of the
    block buffer."""
    if n_paths < 2:
        raise ValueError(f"{name} needs at least 2 paths, got {n_paths}")
    buf = np.empty((grid.steps, min(_PATH_BLOCK, n_paths), dim, dim))
    # one path at a time into the block would write it at a stride of the block's
    # width; a small path-major chunk is copied in with one transposed assignment
    chunk = np.empty((min(_FILL, n_paths), grid.steps, dim, dim))
    flat = chunk.reshape(-1, dim, dim)  # the chunk's paths end to end

    def block(start: int) -> np.ndarray:
        count = min(_PATH_BLOCK, n_paths - start)
        for lo in range(0, count, _FILL):
            paths = range(start + lo, start + min(lo + _FILL, count))
            np.concatenate([sample_path(grid, dim, seed, i).increments for i in paths],
                           out=flat[:len(paths) * grid.steps])
            buf[:, lo:lo + len(paths)] = chunk[:len(paths)].swapaxes(0, 1)
        return values(buf[:, :count])

    return np.concatenate(_fan_out([functools.partial(block, start)
                                    for start in range(0, n_paths, _PATH_BLOCK)]))


def _three_se_report(name: str, values: np.ndarray, target_key: str, target: float,
                     seed: int) -> CheckReport:
    """Pass when the mean of the per-path values is within 3 SE of the target.

    A mean or standard error that overflowed decides nothing, and neither does
    a standard error of 0 (every path gave the same value), so both raise.
    """
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.size))
    for label, value in (("mean", mean), ("standard error", se)):
        if not np.isfinite(value):
            raise ValueError(f"{name}: the Monte Carlo {label} is not finite ({value!r})")
    if se == 0.0:
        raise ValueError(f"{name}: the Monte Carlo standard error is 0, so the check "
                         "certifies nothing")
    gap = abs(mean - target)
    return CheckReport(name, values.size, gap - 3.0 * se, 0.0, gap <= 3.0 * se,
                       details={"mean": mean, target_key: target, "se": se, "seed": seed})


def mc_isometry(a_const: SymmetricMatrix, c_const: SymmetricMatrix, x, y,
                paths: int, grid: TimeGrid, seed: int) -> CheckReport:
    """Second-moment identity for the integral of constant matrix processes.

    Compares the Monte Carlo mean of y^T M^2 x, M = A B_tau C the left-point
    integral of A dB C, against the exact time integral of x^T C^T C A A^T y.
    Passes when the gap is within three standard errors.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    rhs = isometry_rhs(MatrixProcess.constant(grid, a_const),
                       MatrixProcess.constant(grid, c_const), x, y)

    def second_moments(inc):  # y . M (M x) of each path, contracted elementwise
        m = a_const.entries @ inc.sum(axis=0) @ c_const.entries
        mx = (m * x).sum(axis=-1)
        return ((m * mx[:, None, :]).sum(axis=-1) * y).sum(axis=-1)

    values = _per_path("isometry", grid, a_const.dim, seed, paths, second_moments)
    return _three_se_report("mc_isometry", values, "rhs", rhs, seed)


def estimate_lemma_beta(a_const: SymmetricMatrix, c_const: SymmetricMatrix,
                        paths: int, grid: TimeGrid, x, seed: int) -> float:
    """Smallest empirical beta bounding the symmetrized second moment.

    Estimates, at every grid time, the ratio of E[x^T (M + M^T)^2 x] to
    |E[x^T M^2 x]| + |E[x^T (M^T)^2 x]| with M the running integral of
    A dB C, and returns the largest ratio across the grid.  The two
    denominator terms are equal (x^T (M^T)^2 x is the transpose of the scalar
    x^T M^2 x), and both quadratic forms are inner products of Mx and M^T x.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    a, c = a_const.entries, c_const.entries
    cx, atx = c @ x, x @ a  # C x and A^T x

    def forms(inc):  # x^T (M + M^T)^2 x and x^T M^2 x of each path at each grid time
        # M x = A (S (C x)) and M^T x = C^T (S^T (A^T x)), S the running sum of dB,
        # by matrix-vector products: M itself is never formed; einsum, not BLAS,
        # so a path's bits do not depend on its place in the block
        path_sums = np.cumsum(inc, axis=0)
        mx = np.einsum("ij,kpj->pki", a, np.einsum("kpij,j->kpi", path_sums, cx))
        mtx = np.einsum("kpj,ji->pki", np.einsum("j,kpji->kpi", atx, path_sums), c)
        sym = mx + mtx
        return np.stack([np.einsum("pki,pki->pk", sym, sym), np.einsum("pki,pki->pk", mtx, mx)],
                        axis=1)

    num, m2 = _per_path("lemma beta", grid, a_const.dim, seed, paths, forms).mean(axis=0)
    den = 2.0 * np.abs(m2)
    if (den < 1e-14 * max(1.0, float(np.abs(num).max()))).any():
        raise ValueError("second moments are numerically zero; beta is undefined")
    return float((num / den).max())


def mc_trace_moment(model: SdeModel, paths: int, grid: TimeGrid, seed: int) -> CheckReport:
    """Mean trace of X_tau against trace(X_0) + drift * d * tau, at 3 SE.

    Requires a drift coefficient declared constant (as in the Wishart model).
    """
    if not model.b.constant:
        raise ValueError("trace-moment oracle requires a constant drift coefficient")
    expected = model.x0.trace() + model.b.constant_value * model.dim * grid.horizon
    traces = _per_path("trace-moment", grid, model.dim, seed, paths,
                       lambda inc: np.einsum("pii->p", euler_final_states(model, grid, inc)))
    return _three_se_report("trace_moment", traces, "expected", expected, seed)


def run_inequality_suite(samples: int, dims, seed: int) -> list:
    """All three operator-inequality checks at each dimension, in the order of
    `dims`.  Each dimension is one task of `_fan_out`, handed to it largest
    first, since the cost grows with the dimension."""
    def suite(d):
        return [check_inq2(samples, d, seed), check_inq_nice(samples, d, seed + 1),
                check_prop_cauchy(samples, d, 32, seed + 2)]

    dims = list(dims)
    order = sorted(range(len(dims)), key=dims.__getitem__, reverse=True)
    done = dict(zip(order, _fan_out([functools.partial(suite, dims[i]) for i in order])))
    return [report for i in range(len(dims)) for report in done[i]]
