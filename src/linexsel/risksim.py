"""Seeded Monte Carlo risk engine and the six-table grid sweeps.

Every cell of a grid draws from its own counter-based stream keyed by
(master seed, table id, row, column group), so results are bit-identical
for a fixed master seed no matter how many workers run the sweep or which
columns are added later. A column group is the base-estimator family; the
base and its truncation-improved variant share draws, which is exactly the
common-random-numbers pairing the dominance comparisons need.

The cell's array kernels come from `kernels`, which no other module
imports, so only a start that runs a sweep compiles them.

One runner runs the blocks of cells it is given: `risk_grid` cuts each
column group's rows into blocks of k, and `simulate_risk`, `simulate_all`
and `paired_risk_difference` pass a block of their one cell. Each cell of a
block draws its own stream into its row of a (k, 4, reps) draw block, then
every kernel runs once over (k, reps) arrays, with the bits of each cell
run alone. What a block's columns share is done once: one selection mask,
one phi per base, one clip band for every improved column, and the loss
and both reductions over a (columns, k, reps) stack of the columns'
estimates. k keeps all threads' blocks within _BLOCK_REP_CELLS rep-cells,
so the 20000-rep tables run one row at a time. The runner gives each thread
one reused `CellWorkspace`, which holds every array that lives through a
block (the kernels allocate only their short-lived temporaries), and
refuses with a MemoryError, before building any, a run whose blocks would
exceed physical memory. A block only detects a numerical fault: it raises
whatever it meets first, under its first cell's first column's name. Which
error a failing run raises, and the column it names, is decided in one
place: a run that meets only LinexErrors goes again column by column, each
column of each cell alone in stream-key order, and raises the first error
that meets, so every entry point raises what a column-by-column run of its
cells would.

The calling thread and up to workers - 1 helpers take the blocks from one
iterator, draw them at once, numpy sampling with the GIL released, and
take turns at the rest of a block. That rest is mostly numpy calls of a
few us each on 20000 doubles, and two threads handing the GIL back and
forth around each call lose more than they gain: fed canned draws, the six
tables' non-sampling half ran slower on two threads than on one (about 135
against 127 ms at 20000 reps, 32 against 21 ms at 2000, on two cores).
"""

from __future__ import annotations

import io
import math
import os
import threading
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional, Sequence, TypeVar

from .core import (
    CovarianceSpec,
    InvalidParameterError,
    LinexError,
    LinexParams,
    MeanVectorPair,
    Record,
    nonnegative_int,
    replace,
    rng_stream,
    sample_block,
)
from .estimators import BASE_KINDS, EstimatorSpec
from .improvement import table_columns  # re-exported: grid callers read it from here
from .kernels import base_phi_batch, clip_band_batch, evaluate_batch, linex_loss, mask_blend, select_batch

if TYPE_CHECKING:
    import numpy as np

#: the 11 mean-vector configurations used by every published table
THETA_CONFIGS: tuple[MeanVectorPair, ...] = tuple(
    MeanVectorPair(t1, t2)
    for t1, t2 in [
        ((0.2, 2.0), (2.0, 0.2)),
        ((0.4, 1.8), (1.8, 0.4)),
        ((0.6, 1.6), (1.6, 0.6)),
        ((0.8, 1.4), (1.4, 0.8)),
        ((1.0, 1.2), (1.2, 1.0)),
        ((0.0, 0.0), (0.0, 0.0)),
        ((1.2, 1.0), (1.0, 1.2)),
        ((1.4, 0.8), (0.8, 1.4)),
        ((1.6, 0.6), (0.6, 1.6)),
        ((1.8, 0.4), (0.4, 1.8)),
        ((2.0, 0.2), (0.2, 2.0)),
    ]
)

_GROUP_IDS = {"N1": 0, "N2": 1, "N3": 2, "N4": 3, "Bayes": 4, "Shift": 5}


def stream_group(spec: EstimatorSpec) -> int:
    """Column-group index for stream derivation; improved shares its base's group."""
    kind = spec.base.kind if spec.kind == "Improved" else spec.kind
    return _GROUP_IDS[kind]


class SimConfig(Record):
    def __init__(
        self,
        means: MeanVectorPair,
        cov: CovarianceSpec,
        a: LinexParams,
        reps: int = 20000,
        master_seed: int = 0,
        estimators: tuple[EstimatorSpec, ...] = (),
    ):
        reps = nonnegative_int("reps", reps, least=1)
        master_seed = nonnegative_int("master seed", master_seed)
        self.__dict__.update(
            means=means, cov=cov, a=a, reps=reps, master_seed=master_seed, estimators=estimators
        )


class RiskEstimate(Record):
    """Monte Carlo mean LINEX risk with its standard error (None at one rep)."""

    def __init__(self, mean_risk: float, std_error: Optional[float]):
        self.__dict__.update(mean_risk=mean_risk, std_error=std_error)


class CellWorkspace:
    """The arrays that live through a block of `rows` cells of `reps` draws, reused block by block.

    The (rows, 4, reps) draw block; each of shape (rows, reps), the int64
    selection mask, y_sel, t1, t2, the realized theta_y^S, the base phi
    (N3's or N4's; N1's and N2's are floats) and the clip band's (value,
    lo_set, hi_set); and the (columns, rows, reps) column stack, where each
    column's estimate becomes its loss and then its loss's squared deviation.
    The kernels' own temporaries are allocated call by call. One thread's
    alone; dropped when the call that made it returns, or when a block of
    another height comes.
    """

    #: what a block takes at its peak per rep of one row, beside the column
    #: stack's 8 bytes a column, rounded up to whole doubles: the workspace's
    #: 90 (the draw block's four rows, the mask, five vectors, the band's value
    #: and its two bool sets) and the kernels' temporaries at their peak, at
    #: most 34 in a traced sweep of the published and CLI grids (N3 holds u,
    #: Phi and Phi's two at once)
    BYTES_PER_REP = 16 * 8
    #: what a block takes per row whatever its reps, in whole KiB: the cell's
    #: Philox generator, seed sequence and records, and its share of the run's
    #: own objects, at most 3.6 kB in a traced one-worker sweep of the
    #: published and CLI grids at 1 to 50 reps
    BYTES_PER_CELL = 4 * 1024

    def __init__(self, rows: int, reps: int, columns: int):
        import numpy as np

        self.draws = np.empty((rows, 4, reps))
        self.mask = np.empty((rows, reps), np.int64)
        self.y_sel, self.t1, self.t2, self.theta_sel, self.phi = (np.empty((rows, reps)) for _ in range(5))
        self.band = (np.empty((rows, reps)), np.empty((rows, reps), bool), np.empty((rows, reps), bool))
        self.stack = np.empty((columns, rows, reps))

    @classmethod
    def size(cls, rows: int, reps: int, columns: int) -> int:
        """The bytes a thread's block of `rows` cells of `columns` columns takes at its peak, at most."""
        return rows * (reps * (cls.BYTES_PER_REP + 8 * columns) + cls.BYTES_PER_CELL)


class _Cell(NamedTuple):
    """A risk cell: its config, its columns, its stream key, and each column's name in errors."""

    config: SimConfig
    specs: Sequence[EstimatorSpec]
    stream_key: tuple[int, ...]
    names: Sequence[str]


#: rep-cells (one cell's draw at one rep) that a sweep's threads hold at once,
#: one published-table cell's worth: where reps are fewer, a block runs more
#: rows. Blocks of 11 rows at 20000 reps ran about 60 % slower once the working
#: set left a 2 MB L2.
_BLOCK_REP_CELLS = 20000


def _block_losses(block: Sequence[_Cell], ws: CellWorkspace, draws: tuple[np.ndarray, ...]) -> np.ndarray:
    """The block's column losses, a (columns, rows, reps) view of `ws.stack`.

    The block's cells share their columns, covariance, LINEX parameter and
    reps; row i holds cell i, and `draws` is the block's (x1, y1, x2, y2),
    row i drawn from cell i's own stream. What columns share is built once:
    the selection mask, each base's phi and the clip band. Every column's
    estimate goes into its slice of the stack, then the loss runs once over
    the stack. Raises whatever it meets, a loss error under the first
    cell's first column's name, exact only for a lone column of a lone
    cell: `_run_cells` reruns a failing run so, and the rerun names the
    error raised.
    """
    import numpy as np

    config, specs = block[0].config, block[0].specs
    means = [cell.config.means for cell in block]
    x1, y1, x2, y2 = draws
    s = select_batch(x1, y1, x2, y2, (ws.mask, ws.y_sel, ws.t1, ws.t2))
    # each row's theta_y of the two populations, broadcast along the draws
    theta1_y, theta2_y = np.array([(m.theta1[1], m.theta2[1]) for m in means]).T[:, :, None]
    theta_sel = mask_blend(ws.mask, theta1_y, theta2_y, ws.theta_sel)
    a, cov = config.a, config.cov
    stack = ws.stack[: len(specs)]
    held = phi = band = None
    for spec, out in zip(specs, stack):
        if spec.kind == "Bayes" and s.x_max is None:
            # only Bayes reads x_max, so only a Bayes column builds it
            s = replace(s, x_max=np.maximum(x1, x2))
        # a base and its improved column share the draws, so they share one phi
        base = spec.base if spec.kind == "Improved" else spec
        if base != held and base.kind in BASE_KINDS:
            held, phi = base, base_phi_batch(base, s, a, cov, ws.phi)
        if spec.kind == "Improved" and band is None:
            # every improved column clips into the one band, built at the first
            band = clip_band_batch(s.t1, s.t2, a, cov, ws.band)
        estimate = evaluate_batch(spec, s, a, cov, phi, out, band)
        if estimate is not out:  # Bayes allocates its own
            out[...] = estimate
    return linex_loss(stack, theta_sel, a, block[0].names[0], stack)


def _estimates(losses: np.ndarray, name: str) -> list[list[RiskEstimate]]:
    """Each column's rows' mean loss and standard error (None at one rep), in column order.

    Per row, the ufuncs of losses.mean() and losses.std(ddof=1), so the bits
    match, with the deviations taken over `losses` in place. Raises a
    LinexError naming `name` where a mean or standard error is not finite.
    """
    import numpy as np

    n = losses.shape[-1]
    # a sum or a square past the double range is refused below, by name
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.add.reduce(losses, axis=-1) / n
        ses = [[None] * means.shape[1]] * len(means)
        if n > 1:
            dev = np.subtract(losses, means[..., np.newaxis], out=losses)
            np.square(dev, out=dev)
            ses = (np.sqrt(np.add.reduce(dev, axis=-1) / (n - 1)) / math.sqrt(n)).tolist()
    columns = [[RiskEstimate(mean, se) for mean, se in zip(*column)] for column in zip(means.tolist(), ses)]
    for est in (est for column in columns for est in column):
        if not (math.isfinite(est.mean_risk) and math.isfinite(est.std_error or 0.0)):
            se = "none" if est.std_error is None else f"{est.std_error:.6g}"
            raise LinexError(
                f"{name}: the risk estimate left the double range "
                f"(mean {est.mean_risk:.6g}, standard error {se})"
            )
    return columns


_R = TypeVar("_R")


def _column_estimates(losses: np.ndarray, block: Sequence[_Cell]) -> list[list[RiskEstimate]]:
    return [list(row) for row in zip(*_estimates(losses, block[0].names[0]))]


def _paired_difference(losses: np.ndarray, block: Sequence[_Cell]) -> list[RiskEstimate]:
    difference = losses[:1]
    difference -= losses[1]
    [estimates] = _estimates(difference, " - ".join(block[0].names))
    return estimates


def _run_cells(
    blocks: Sequence[Sequence[_Cell]], reps: int, workers: int,
    reduce: Callable[[np.ndarray, Sequence[_Cell]], list[_R]],
) -> list[list[_R]]:
    """`reduce`'s results for each block, in order, from the block's cells run at once.

    A block's cells share their columns, covariance, LINEX parameter, seed
    and reps; `reduce(losses, block)`, on what `_block_losses` gives,
    returns one result per cell. The calling thread and
    min(workers, blocks) - 1 helpers take the blocks from one iterator, each
    building one workspace, with a stack for the widest block's columns, on
    its first block. A thread draws its block while the others run theirs, then waits
    for the turn, which one thread at a time holds through the block's
    kernels and `reduce`; an error stops every thread after its block.
    Raises MemoryError, before any workspace is built, where those threads'
    workspaces would exceed physical memory: one that cannot fit would pass
    np.empty under overcommit and get the process killed later. Where a run
    meets only LinexErrors, it runs again column by column: each column of
    each cell alone, cells in stream-key order, reduced to its mean and
    standard error whatever `reduce` is. The first error of that rerun is
    raised, or, where it meets none, the run's own.
    """
    threads = min(workers, len(blocks))
    rows, columns = max(map(len, blocks)), max(len(block[0].specs) for block in blocks)
    need = threads * CellWorkspace.size(rows, reps, columns)
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # the OS does not say
        have = 0
    if 0 < have < need:
        raise MemoryError(
            f"needs about {need / 2**20:.0f} MiB of workspace on {threads} threads, "
            f"more than the {have / 2**20:.0f} MiB of physical memory"
        )
    # the rest of a block after its draw, taken by one thread at a time
    turn = threading.Lock()
    results: dict[int, list] = {}
    errors: list[BaseException] = []

    def work(todo: Iterator[tuple[int, Sequence[_Cell]]], reduce: Callable) -> Optional[CellWorkspace]:
        ws = None
        try:
            for i, block in todo:
                if ws is None or len(ws.draws) != len(block):
                    ws = draws = None  # the old one goes before the new one is built
                    ws = CellWorkspace(len(block), reps, columns)
                rngs = [rng_stream(cell.config.master_seed, *cell.stream_key) for cell in block]
                means = [cell.config.means for cell in block]
                draws = sample_block(means, block[0].config.cov, rngs, reps, ws.draws)
                # held here, not in the generator: one suspended in a traceback would keep it
                with turn:
                    results[i] = reduce(_block_losses(block, ws, draws), block)
        except BaseException as exc:  # a Ctrl-C too: every thread stops after the block it holds
            errors.append(exc)
            for _ in todo:
                pass
        return ws

    # each next() on the one C iterator holds the GIL, so each block goes to one thread
    todo = iter(enumerate(blocks))
    helpers = [threading.Thread(target=work, args=(todo, reduce)) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    ws = work(todo, reduce)  # kept to the return: freed in `work`, it moved perfbench's numpy probe 5 %
    for helper in helpers:
        helper.join()
    if errors and all(isinstance(exc, LinexError) for exc in errors):
        # a block meets every column's loss error before any column's mean error,
        # and rows from later in the grid's order than another block's; a
        # column's bits are the same alone, so the columns one by one raise the
        # error that comes first
        ws = None  # the one-row workspaces are built with the old one gone
        cells = sorted((cell for block in blocks for cell in block), key=lambda c: c.stream_key)
        alone = [[_Cell(c.config, [spec], c.stream_key, [name])]
                 for c in cells for spec, name in zip(c.specs, c.names)]
        work(enumerate(alone), _column_estimates)
    if errors:
        raise next((exc for exc in errors if not isinstance(exc, LinexError)), errors[-1])
    return [results[i] for i in range(len(blocks))]


def _refuse_repeats(labels: Sequence[str], owner: str) -> None:
    # labels print c and d with :g, so close thresholds can share one, and a
    # result keyed or printed by label would lose or confuse a column
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise InvalidParameterError(f"{owner} repeat the label {label!r}")


def simulate_risk(
    config: SimConfig, spec: EstimatorSpec, stream_key: tuple[int, ...] = ()
) -> RiskEstimate:
    """Monte Carlo LINEX risk of one estimator at the configured means.

    Each rep draws an observation pair, applies the selection rule, evaluates
    the estimator, and scores it against the realized theta_y^S. Deterministic
    for a fixed (master_seed, stream_key).
    """
    cells = [_Cell(config, [spec], stream_key, [spec.label])]
    [[(est,)]] = _run_cells([cells], config.reps, 1, _column_estimates)
    return est


def simulate_all(config: SimConfig) -> dict[str, RiskEstimate]:
    """Evaluate config.estimators on one shared stream (common random numbers), keyed by label."""
    if not config.estimators:
        raise InvalidParameterError("config.estimators must be nonempty")
    labels = [spec.label for spec in config.estimators]
    _refuse_repeats(labels, "config.estimators")
    cells = [_Cell(config, config.estimators, (), labels)]
    [[estimates]] = _run_cells([cells], config.reps, 1, _column_estimates)
    return dict(zip(labels, estimates))


def paired_risk_difference(
    config: SimConfig,
    spec_a: EstimatorSpec,
    spec_b: EstimatorSpec,
    stream_key: tuple[int, ...] = (),
) -> tuple[float, float]:
    """mean(loss_a - loss_b) over identical draws, with the paired standard error (0 at one rep).

    Where it fails, raises the first error that the two columns meet each
    run alone, as `simulate_all` of the pair would, and the difference's own
    error only where neither column fails alone.
    """
    cells = [_Cell(config, [spec_a, spec_b], stream_key, [spec_a.label, spec_b.label])]
    [[est]] = _run_cells([cells], config.reps, 1, _paired_difference)
    return est.mean_risk, est.std_error or 0.0


class TableSpec(Record):
    """Config of one published risk table (or a custom grid shaped like one)."""

    def __init__(
        self,
        table_id: int,
        a: LinexParams,
        cov: CovarianceSpec,
        columns: tuple[tuple[str, EstimatorSpec], ...],
        rows: tuple[MeanVectorPair, ...] = THETA_CONFIGS,
    ):
        if not rows or not columns:
            raise InvalidParameterError(
                f"a grid needs rows and columns, got {len(rows)} rows and {len(columns)} columns"
            )
        # the table id keys every cell's stream, so 1.5 or True must not alias table 1
        table_id = nonnegative_int("table id", table_id)
        _refuse_repeats([label for label, _ in columns], "columns")
        self.__dict__.update(table_id=table_id, a=a, cov=cov, columns=columns, rows=rows)

    @property
    def c(self) -> Optional[float]:
        """The hybrid threshold of the grid's N4 column, or None without one."""
        return next((spec.c for _, spec in self.columns if spec.kind == "N4"), None)


def _make_table(table_id: int, a: float, sigma: float, rho: float, improved: Sequence[str]) -> TableSpec:
    cov = CovarianceSpec.from_correlation(sigma, sigma, rho)
    return TableSpec(
        table_id=table_id,
        a=LinexParams(a),
        cov=cov,
        columns=table_columns(a, rho, improved, 1.0),
    )


#: the published grids: (a, sigma_xx = sigma_yy, rho, which bases carry an improved column)
TABLE_SPECS: dict[int, TableSpec] = {
    5: _make_table(5, 1.0, 2.0, 1.0, ("N1", "N2")),
    6: _make_table(6, 1.0, 2.0, -1.0, ("N1", "N2", "N3", "N4")),
    7: _make_table(7, 1.0, 2.0, 0.0, ("N3",)),
    8: _make_table(8, -1.0, 4.0, 1.0, ()),
    9: _make_table(9, -1.0, 4.0, -1.0, ("N1", "N2", "N3", "N4")),
    10: _make_table(10, -1.0, 4.0, 0.0, ("N1", "N4")),
}


class RiskTable(Record):
    """Results of one grid sweep, in canonical row-major order."""

    def __init__(
        self,
        spec: TableSpec,
        reps: int,
        master_seed: int,
        estimates: Optional[dict[tuple[int, int], RiskEstimate]] = None,
    ):
        self.__dict__.update(
            spec=spec, reps=reps, master_seed=master_seed,
            estimates={} if estimates is None else estimates,
        )

    def cell(self, row: int, col: int) -> RiskEstimate:
        return self.estimates[(row, col)]

    @property
    def flagged(self) -> list[tuple[int, str, float, float]]:
        """Cells whose standard error exceeds 5% of the mean (high variance)."""
        out = []
        for (i, j), est in sorted(self.estimates.items()):
            if est.std_error is not None and est.std_error > 0.05 * abs(est.mean_risk):
                out.append((i, self.spec.columns[j][0], est.mean_risk, est.std_error))
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("theta1_x,theta1_y,theta2_x,theta2_y,estimator,risk,std_error,reps,seed\n")
        for i, means in enumerate(self.spec.rows):
            for j, (label, _) in enumerate(self.spec.columns):
                est = self.estimates[(i, j)]
                se = "" if est.std_error is None else f"{est.std_error:.6g}"
                buf.write(
                    f"{means.theta1[0]:.6g},{means.theta1[1]:.6g},"
                    f"{means.theta2[0]:.6g},{means.theta2[1]:.6g},"
                    f"{label},{est.mean_risk:.6g},{se},{self.reps},{self.master_seed}\n"
                )
        return buf.getvalue()


def available_cpus() -> int:
    """Number of CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def risk_grid(
    table: int | TableSpec,
    reps: int = 20000,
    master_seed: int = 0,
    workers: Optional[int] = None,
) -> RiskTable:
    """Sweep a table's full factorial of mean configurations x estimator columns.

    `table` is a TableSpec or a published table's id, of any integer type but
    bool. Cells are independent tasks; draws for a cell come from the stream
    keyed (master_seed, table_id, row, column-group), so the output is
    byte-identical for any worker count and unchanged when columns from other
    groups are added. `workers` defaults to `available_cpus()`. The sweep runs
    blocks of k rows of one column group, k = max(1, _BLOCK_REP_CELLS //
    (reps * min(workers, cells))), on min(workers, blocks) threads. Raises
    MemoryError, before any workspace is built, where those threads'
    workspaces would exceed physical memory.
    """
    if isinstance(table, TableSpec):
        spec = table
    else:
        table_id = nonnegative_int("table id", table)
        if table_id not in TABLE_SPECS:
            raise InvalidParameterError(
                f"table id must be one of {sorted(TABLE_SPECS)}, got {table_id}"
            )
        spec = TABLE_SPECS[table_id]
    workers = nonnegative_int("workers", available_cpus() if workers is None else workers, least=1)
    # Python ints: the workspace's size below cannot wrap as an int64's would, and the table holds plain ints
    reps, master_seed = nonnegative_int("reps", reps, least=1), nonnegative_int("master seed", master_seed)

    # one cell per (row, column group): all columns in a group share draws
    groups: dict[int, list[int]] = {}
    for j, (_, est_spec) in enumerate(spec.columns):
        groups.setdefault(stream_group(est_spec), []).append(j)
    cells = {}
    for g in sorted(groups):
        specs = [spec.columns[j][1] for j in groups[g]]
        cells[g] = [
            _Cell(SimConfig(means, spec.cov, spec.a, reps, master_seed), specs, (spec.table_id, i, g),
                  [f"row {i}, column {spec.columns[j][0]}" for j in groups[g]])
            for i, means in enumerate(spec.rows)
        ]
    # row chunk by row chunk, one block per column group: all threads' blocks
    # together hold no more than _BLOCK_REP_CELLS rep-cells unless one cell does
    k = max(1, _BLOCK_REP_CELLS // (reps * min(workers, len(spec.rows) * len(groups))))
    blocks = [column[r : r + k] for r in range(0, len(spec.rows), k) for column in cells.values()]
    estimates = {}
    for block, results in zip(blocks, _run_cells(blocks, reps, workers, _column_estimates)):
        for cell, row in zip(block, results):
            _, i, g = cell.stream_key
            estimates.update(((i, j), est) for j, est in zip(groups[g], row))
    # row-major, so the order does not follow the block height, which the workers set
    return RiskTable(spec, reps, master_seed, dict(sorted(estimates.items())))
