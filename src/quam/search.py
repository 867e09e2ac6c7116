"""Penalty-method search for adversarial models.

An adversarial model contradicts a reference model's prediction at one
test input while explaining the training data essentially as well (its
mean training loss stays within a slack gamma of the reference's).  The
search minimizes

    L = L_adv + c * relu(L_pen),      L_pen = batch_loss - (L_ref + gamma)

with Adam, increasing the penalty weight c on a multiplicative schedule so
late iterates are pushed back inside the feasible region.  Each Adam update
takes one forward and one closed-form backward pass (`_Workspace`): the
gradient enters as per-row gradients at the head outputs of the data
rows and of the test row.  Every visited model is recorded with its
prediction row at the test point (as `models.head_predictions` gives it)
and its full-training-set loss; a full-batch search reads both from the
update's own forward pass.  The returned best iterate maximizes divergence
from the reference among iterates whose *full-data* penalty is <= 0 (the
mini-batch estimate alone can be optimistic).

Classification searches are run once per class, each maximizing that
class's probability (targeted); untargeted divergence maximization tends
to rediscover one solution.  Regression runs an upward and a downward
search, seeded by nudging the output bias; a direction search also pays
c * relu(violation) while its mean sits on the wrong side of the
reference mean.

Searches run in lock-step (`search_batch`).  The searches of one batch
share the training data, the reference and the `SearchConfig`; each has
its own test input, objective and random stream, so a batch may hold the
searches of many test points.  A step advances all of them at once: the
parameters, Adam moments and gradients are (K, P) stacks, and the records
and best-iterate choice are vectorized across the K searches.  Each
search's slice of every stacked operation has the bits of the same
operation run for that search alone, so a search's records and best
iterate do not depend on what else is in its batch.  A search that hits a
non-finite loss stops: a mask takes it out of the records and the
best-iterate choice, while its row stays in the stack, where no other
search reads it, and the others go on.  What the reference fixes is
computed once per batch, not once per search: its prediction rows at the
test inputs with their entropies and KL terms, its full-data loss L_ref
and the slack gamma, the data's target rows (with their
`models.target_terms`, in a full-batch search) and, for a last-layer
search, the penultimate features of the data and of the test inputs.

A step allocates no buffer of the batch's size: its `models.Workspace`
(`_Workspace`), built once per batch, holds the (K, P) parameter stack,
which Adam updates in place (and zeroes its moments in place at each
penalty stage), and every row buffer.  Its n rows are the batch rows, and
its extra row, with its own GEMM, each search's test row.  One head pass
over all n + 1 rows, each row weighted (1/n on the batch rows, and +1 or
-1 on the test row, the sign of its cross-entropy in L_adv), gives the
batch losses, L_adv, the test rows' prediction rows and every head-output
gradient.  The backward pass runs on all rows when every search pays the
penalty, on the test rows when none does, and otherwise on the test rows
of every search, then on all rows of each run of consecutive penalized
searches.  The records go into per-batch columns, one row per step
(`_Records`); each trajectory's record columns are sliced from them once,
at the end.  A record's divergence is `measures.kl` of the reference row
and the model's row, the same KL as the setting-b split's, with the
reference rows' xlogx terms and support mask taken once per batch.  The
divergences choose the best iterate and decide `no_feasible`; the
trajectory files do not carry them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import require
from .measures import _check_rows, _xlogx, entropy, kl
from .models import Adam, ArchSpec, ModelParams, Workspace, cross_entropy_loss, forward, forward_into, head_predictions, target_rows
from .rng import derive_rng

__all__ = [
    "SearchConfig",
    "SearchTrajectory",
    "search_batch",
    "search_suites",
    "trajectory_to_jsonl",
]

# elements of one (searches, rows, k) block of a stacked full-data loss
_LOSS_BLOCK = 1 << 20


@dataclass
class SearchConfig:
    """Penalty schedule, optimizer and scope of the search."""

    c0: float = 1.0
    eta_factor: float = 1.5
    eta_every: int = 10
    gamma: Optional[float] = None  # None -> 5% of |L_ref|
    steps: int = 100
    lr: float = 5e-3
    weight_decay: float = 1e-3
    adam_eps: float = 1e-8  # lower it when saturated objectives must keep moving
    batch_size: Optional[int] = None  # None -> full training set
    delta_scope: str = "all_params"  # all_params | last_layer | bias_only
    seed: int = 0
    bias_nudge: float = 1e-2  # regression head offset before searching
    param_box: Optional[tuple[float, float]] = None  # clamp free params
    free_mask: Optional[np.ndarray] = None  # explicit override of delta_scope

    def __post_init__(self):
        require(1, above=True, eta_factor=self.eta_factor)
        require(1, steps=self.steps, eta_every=self.eta_every, batch_size=self.batch_size)
        require(0, above=True, c0=self.c0)
        require(0, gamma=self.gamma, lr=self.lr, weight_decay=self.weight_decay)
        if self.delta_scope not in ("all_params", "last_layer", "bias_only"):
            raise ValueError(f"unknown delta_scope {self.delta_scope!r}")


@dataclass
class SearchTrajectory:
    """One search's visited models, as record columns with one entry per model, and its best iterate."""

    target: str
    head: str  # the reference's head: "categorical" | "gaussian_scalar"
    step: np.ndarray  # (records,) int
    c: np.ndarray  # the penalty weight
    adv_loss: np.ndarray  # the minimized objective term (negated divergence / target CE)
    pen_loss: np.ndarray  # mini-batch penalty at each iterate
    mean_train_loss: np.ndarray  # full-training-set mean loss
    full_pen: np.ndarray  # mean_train_loss - (L_ref + gamma)
    divergence: np.ndarray  # divergence of each model's prediction from the reference
    pred: np.ndarray  # (records, k) prediction rows at the test input: class probabilities or (mean, variance)
    best_index: int  # the best iterate's record
    best_params: ModelParams
    no_feasible: bool
    nan_abort: bool
    reference_loss: float
    gamma: float
    reference_pred: np.ndarray  # the reference's prediction row at the test input


def _scope_mask(arch: ArchSpec, config: SearchConfig) -> np.ndarray:
    if config.free_mask is not None:
        mask = np.asarray(config.free_mask, dtype=bool)
        if mask.shape != (arch.param_count(),):
            raise ValueError("free_mask length does not match parameter count")
        return mask
    if config.delta_scope != "bias_only":
        # a last-layer search runs on the last layer alone, every parameter of which is free
        return np.ones(arch.param_count(), dtype=bool)
    mask = np.zeros(arch.param_count(), dtype=bool)
    for _, bs in arch.layer_slices():
        mask[bs] = True
    return mask


def _target_tag(objective) -> str:
    if isinstance(objective, tuple) and objective[0] == "direction":
        return "direction:+" if int(objective[1]) > 0 else "direction:-"
    if isinstance(objective, tuple) and objective[0] == "class":
        return f"class:{int(objective[1])}"
    return "divergence"


class _Workspace(Workspace):
    """The `models.Workspace` of K lock-step searches' steps, allocated once per batch, and their objectives.

        L_k = L_adv,k(x_k) + c * relu(batch_loss_k - bound) + c * relu(direction_k * (ref_mean_k - mean(x_k)))

    The last term exists for ("direction", +1 | -1) objectives only.  The
    penalty weights the constraint *violation*: a signed term under a
    growing c would collapse late iterates onto the loss minimum instead of
    the constrained optimum.  Both L_adv and the batch loss are
    `models.cross_entropy`: L_adv is CE(one-hot row of k) for a class
    objective and -KL(ref || model) = H[ref] - CE(ref) otherwise.  The
    gradient enters the network as per-row gradients at the head outputs:
    c * 1[pen > 0] * dCE on the batch rows, dL_adv plus the violation term
    on the test row (`gradient`).

    Its n rows are the batch rows and its one extra row is each search's
    test row, whose target is the objective's and whose weight is +1 or -1,
    the sign of its cross-entropy in L_adv; the batch rows weigh 1/n.
    `x` holds the (K, 1, input width) test inputs, `ref` the (K, k)
    reference rows at them and `objectives` one objective per search:
    "divergence" | ("class", k) | ("direction", +1 | -1).
    """

    def __init__(self, arch: ArchSpec, values: np.ndarray, n: int, x: np.ndarray, ref: np.ndarray, objectives: Sequence, bound: float):
        kinds = [o[0] if isinstance(o, tuple) else o for o in objectives]
        self.is_class = np.array([kind == "class" for kind in kinds], dtype=bool)
        self.direction = np.array([int(o[1]) if kind == "direction" else 0 for o, kind in zip(objectives, kinds)], dtype=int)
        self.ref, self.bound = ref, bound
        self.ref_entropy = np.where(self.is_class, 0.0, entropy(arch.head, ref))  # H[ref], 0 for a class objective
        weights = np.full((len(values), 1, n + 1), 1.0 / n)
        weights[:, 0, n] = np.where(self.is_class, 1.0, -1.0)
        super().__init__(arch, np.array(values, dtype=np.float64), n, weights=weights, extra=1)
        self.acts[0][:, n:, :-1] = x
        self.targets[:, :, n] = ref
        for s in np.flatnonzero(self.is_class):
            self.targets[s, :, n] = np.eye(ref.shape[1])[int(objectives[s][1])]

    @property
    def test_out(self) -> np.ndarray:
        """The row-major (K, 1, k) head outputs at the test rows, from the last `losses`."""
        return self.acts[-1][:, self.n :]

    def losses(self) -> tuple[np.ndarray, np.ndarray]:
        """Each search's batch loss and its L_adv, from one `forward`; the test rows' prediction rows go to `test_preds`."""
        n = self.n
        # the test rows keep their own GEMMs on contiguous copies, those of
        # the reference rows' one-row passes: in the batch rows' GEMM, or on
        # a strided column, their outputs can move by an ulp, and an unmoved
        # iterate would then diverge from the reference by a spurious KL > 0
        self.forward()
        self.batch_loss, ce = self.loss(split=n)
        if self.arch.head == "categorical":
            self.test_preds = (self.terms[1][:, :, n:] / self.terms[2][:, :, n:]).swapaxes(-1, -2)
        else:
            self.test_preds = head_predictions(self.arch, self.test_out)
        # L_adv is CE for a class objective and H[ref] - CE otherwise
        return self.batch_loss, np.where(self.is_class, ce, self.ref_entropy - ce)

    def violation(self) -> np.ndarray:
        """direction * (ref mean - mean) at the test rows of the last `losses`; 0 for a search without a direction."""
        viol = self.direction * (self.ref[:, 0] - self.test_out[:, 0, 0])
        return np.where(self.direction != 0, viol, 0.0)

    def gradient(self, c: float) -> np.ndarray:
        """Flat gradients of the K objectives at penalty weight c, one row per search, at the last `losses`.

        It scales the kept head-output gradients in place, so it runs once per `losses`.
        """
        n = self.n
        if self.direction.any():
            pushed = self.violation() > 0.0
            if pushed.any():
                self.dz[pushed, 0, n] -= c * self.direction[pushed]
        active = self.batch_loss - self.bound > 0.0
        if active.all():
            self.dz[:, :, :n] *= c
            return self.backward()
        # inside the slack the batch rows carry no gradient
        self.backward(extra=True)
        if active.any():
            # the penalized searches, one run of consecutive ones at a time, on slices of the views
            rows = np.flatnonzero(active)
            runs = [rows] if rows[-1] - rows[0] < rows.size else np.split(rows, np.flatnonzero(np.diff(rows) > 1) + 1)
            for run in runs:
                at = slice(run[0], run[-1] + 1)
                self.dz[at, :, :n] *= c
                self.backward(at)
        return self.grad


class _Records:
    """The records of K searches in per-batch columns, one row per step.

    Row 0 holds the exact reference, row m the model step m starts from and
    the last row the final model; a search has a record at the rows where
    `valid` holds.  Each search's columns are sliced once, at the end.
    """

    def __init__(self, k: int, steps: int, width: int):
        rows = steps + 2
        self.valid = np.zeros((rows, k), dtype=bool)
        self.c = np.zeros(rows)
        self.adv, self.pen, self.loss, self.div = (np.zeros((rows, k)) for _ in range(4))
        self.pred = np.zeros((rows, k, width))

    def add(self, row: int, at, c: float, adv, pen, loss, div, pred) -> None:
        """Record one model at `row` for each search `at` selects, an index array or a slice."""
        self.valid[row, at] = True
        self.c[row] = c
        self.adv[row, at] = adv
        self.pen[row, at] = pen
        self.loss[row, at] = loss
        self.div[row, at] = div
        self.pred[row, at] = pred

    def columns(self, s: int, step0: int, bound: float, full: bool) -> tuple:
        """Search s's record columns, in `SearchTrajectory`'s order.

        Row m is step m - 1 + step0, and full_pen is each loss less `bound`,
        the penalty itself in a full-batch search.
        """
        rows = np.flatnonzero(self.valid[:, s])
        loss, pen = self.loss[rows, s], self.pen[rows, s]
        return rows - 1 + step0, self.c[rows], self.adv[rows, s], pen, loss, pen if full else loss - bound, self.div[rows, s], self.pred[rows, s]


def _full_losses(arch: ArchSpec, layers, x: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Full-data loss of each model of a stack, given by its per-layer views, in blocks of bounded size; `x` and `targets` are feature-major."""
    step = max(1, _LOSS_BLOCK // targets.size)
    losses = np.empty(len(layers[0]))
    for a in range(0, len(losses), step):
        out = forward_into(arch, [v[a : a + step] for v in layers], [x] + [None] * arch.n_layers)[-1]
        losses[a : a + step] = cross_entropy_loss(arch, out, targets)
    return losses


def search_batch(xs: np.ndarray, data, reference: ModelParams, config: SearchConfig, searches: Sequence[tuple]) -> list[SearchTrajectory]:
    """Run penalty-method searches in lock-step; see the module docstring.

    `xs` holds the test inputs, one per row.  `searches` holds one
    (row of `xs`, objective, seed_keys) triple per search: the objective is
    "divergence", ("class", c) for a targeted classification search, or
    ("direction", +1 | -1) for a one-sided regression search, and the
    search's random stream is `derive_rng(config.seed, *seed_keys)`.
    Returns the trajectories in the order of `searches`; each is the one
    its search gives when run alone.  Test inputs must be finite.  A
    reference prediction outside its head's domain is a ValueError, unless
    the reference's parameters are finite: then it is the model's
    numerical fault (a variance that underflowed to 0, probabilities that
    overflowed to NaN), a FloatingPointError that names the input.
    """
    if not searches:
        return []
    arch = reference.arch
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if not np.isfinite(xs).all():
        raise ValueError("test inputs must be finite")
    # constants of the batch; each test input gets its own one-row pass
    test_acts = forward(reference, xs[:, None, :])
    refs = head_predictions(arch, test_acts[-1])[:, 0]
    # a finite reference's bad row at a finite input is its own numerical fault
    _check_rows(arch.head, refs, "reference prediction", xs if np.isfinite(reference.values).all() else None)
    targets = target_rows(arch, data.y)
    data_targets = np.ascontiguousarray(targets.T)  # class-major, as the full-data losses take them
    data_acts = forward(reference, data.x)
    l_ref = cross_entropy_loss(arch, data_acts[-1].swapaxes(-1, -2), data_targets)
    gamma = config.gamma if config.gamma is not None else 0.05 * abs(l_ref)
    bound = l_ref + gamma

    # Last-layer searches run on cached penultimate features: the frozen
    # layers never change, so the data only has to flow through them once.
    work, test_x, inputs, last = reference, xs[:, None, :], data_acts[0], None
    if config.delta_scope == "last_layer" and arch.n_layers > 1 and config.free_mask is None:
        # the last layer's weights and bias close the flat vector
        last = slice(arch.layer_slices()[-1][0].start, arch.param_count())
        work = ModelParams(ArchSpec(widths=arch.widths[-2:], head=arch.head), reference.values[last])
        test_x, inputs = test_acts[-2][..., :-1], data_acts[-2]
    x, full_x = inputs[:, :-1], inputs.T  # the data rows, and their feature-major buffer for the full-data losses
    warch = work.arch
    n = len(x)
    batch = n if config.batch_size is None else min(config.batch_size, n)
    mask = _scope_mask(warch, config)
    lo, hi = config.param_box if config.param_box is not None else (None, None)

    k = len(searches)
    points = np.array([point for point, _, _ in searches], dtype=int)
    ref_rows = refs[points]
    rngs = [derive_rng(config.seed, *keys) for _, _, keys in searches]
    ws = _Workspace(warch, np.tile(work.values, (k, 1)), batch, test_x[points], ref_rows, [o for _, o, _ in searches], bound)
    bias = warch.layer_slices()[-1][1].start  # the mean-output bias
    for s, (direction, (_, o, _)) in enumerate(zip(ws.direction, searches)):
        if direction:
            ws.values[s, bias] += direction * config.bias_nudge
        elif o == "divergence" and config.bias_nudge:
            # the divergence gradient vanishes at the exact reference; a tiny
            # seeded perturbation of the free parameters provides the first step
            ws.values[s, mask] += config.bias_nudge * rngs[s].standard_normal(int(mask.sum()))
    base = ws.values.copy()

    records = _Records(k, config.steps, refs.shape[-1])
    best_row, best_div, best_values = np.full(k, -1), np.full(k, -np.inf), np.empty((k, warch.param_count()))
    nan_abort = np.zeros(k, dtype=bool)

    # a direction search keeps only iterates on its side of the reference mean
    undirected, ref_means = ws.direction == 0, ref_rows[:, 0].copy()
    full_batch = batch == n
    # the reference rows' terms of every record's KL, taken once
    ref_terms = (_xlogx(ref_rows), ref_rows > 0.0) if arch.head == "categorical" else None

    def add_records(row, keep, c, adv, pen, mtl, preds, values):
        """Record, at `row`, the models `values` of the searches where `keep` holds; update their best iterates.

        `preds` holds the models' (K, 1, k) prediction rows at their test
        rows; the other arguments hold one entry per search.
        """
        slots = np.flatnonzero(keep)
        at = slice(None) if len(slots) == k else slots  # every search, or some
        adv, pen, mtl, preds, values = adv[at], pen[at], mtl[at], preds[at, 0], values[at]
        full_pen = pen if full_batch else mtl - bound
        # KL(reference row || prediction row); the reference rows are checked
        # once per batch, candidate rows by the split
        div = kl(arch.head, ref_rows[at], preds, None if ref_terms is None else (ref_terms[0][at], ref_terms[1][at]))
        records.add(row, at, c, adv, pen, mtl, div, preds)
        better = (full_pen <= 0.0) & (div > best_div[at]) & (undirected[at] | (ws.direction[at] * (preds[:, 0] - ref_means[at]) > 0.0))
        if better.any():
            won = slots[better]
            best_row[won] = row
            best_div[won] = div[better]
            best_values[won] = values[better]

    # a mini-batch search fills its rows at each step: until then any rows do
    ws.fill(x[:batch], targets[:batch])
    # Record the exact reference first; for nudged searches the loop below
    # starts from a distinct (nudged) model.
    nudged = np.array([not np.array_equal(b, work.values) for b in base])
    if nudged.any() and np.isfinite(l_ref):
        ws.values[nudged] = work.values
        add_records(0, nudged, config.c0, ws.losses()[1], np.full(k, l_ref - bound), np.full(k, l_ref), ws.test_preds, ws.values)
        ws.values[nudged] = base[nudged]

    frozen = np.flatnonzero(~mask)
    kept = base[:, frozen]  # the frozen parameters' values, restored after each update
    free = np.flatnonzero(mask)
    opt = Adam(ws.values.shape, config.lr, config.weight_decay, eps=config.adam_eps)
    c = config.c0
    for m in range(1, config.steps + 1):
        if not full_batch:
            idx = np.stack([rng.choice(n, size=batch, replace=False) for rng in rngs])
            ws.fill(x[idx], targets[idx])
        batch_loss, adv = ws.losses()
        mtl = batch_loss if full_batch else _full_losses(warch, ws.layers, full_x, data_targets)
        # a non-finite loss stops its search; its row goes on in the stack,
        # unread by the others, which go on from the same step
        nan_abort |= ~(np.isfinite(adv) & np.isfinite(batch_loss) & np.isfinite(mtl))
        add_records(m, ~nan_abort, c, adv, batch_loss - bound, mtl, ws.test_preds, ws.values)
        if nan_abort.all():
            break

        g = ws.gradient(c)
        if frozen.size:
            g[:, frozen] = 0.0
        opt.step(ws.values, g, out=ws.values)
        if frozen.size:
            ws.values[:, frozen] = kept
        if lo is not None:
            ws.values[:, free] = np.clip(ws.values[:, free], lo, hi)
        if m % config.eta_every == 0:
            c *= config.eta_factor
            # each penalty stage is its own unconstrained subproblem; a stale
            # second-moment estimate from a boundary contact at the previous,
            # smaller c would throttle the steps of every later stage
            opt.reset()

    if not nan_abort.all():
        # the final updated models were visited too
        batch_loss, adv = ws.losses()
        mtl = batch_loss if full_batch else _full_losses(warch, ws.layers, full_x, data_targets)
        nan_abort |= ~np.isfinite(adv)
        add_records(config.steps + 1, ~nan_abort & np.isfinite(mtl), c, adv, mtl - bound, mtl, ws.test_preds, ws.values)

    trajectories = []
    for s, (point, o, _) in enumerate(searches):
        columns = records.columns(s, int(nudged[s]), bound, full_batch)
        no_feasible = bool(best_row[s] < 0 or best_div[s] <= 0.0)
        if no_feasible:
            # no feasible iterate improved on the reference: return the reference
            if not columns[0].size:
                columns = (np.zeros(1, dtype=int), *(np.array([v], dtype=float) for v in (config.c0, 0.0, -gamma, l_ref, -gamma, 0.0)), refs[point][None])
            best, best_params = 0, work.values
        else:
            best, best_params = int(records.valid[: best_row[s], s].sum()), best_values[s]
        if last is not None:
            full = reference.values.copy()
            full[last] = best_params
            best_params = full
        trajectories.append(SearchTrajectory(_target_tag(o), arch.head, *columns, best, ModelParams(arch, best_params), no_feasible, bool(nan_abort[s]), l_ref, gamma, refs[point]))
    return trajectories


def _suite(arch: ArchSpec, classes) -> list[tuple]:
    """One point's searches as (objective, seed_keys) pairs; each random stream is keyed by the class or direction."""
    if arch.head == "categorical":
        return [(("class", int(c)), (int(c),)) for c in (range(arch.n_classes) if classes is None else classes)]
    return [(("direction", +1), (0,)), (("direction", -1), (1,))]


def search_suites(xs, data, reference: ModelParams, config: SearchConfig, classes=None) -> list[list[SearchTrajectory]]:
    """Every test point's searches, all run as one lock-step batch.

    A categorical reference gets one targeted search per class, or per
    entry of that point's list in `classes`, one list per row of `xs`; a
    Gaussian reference gets an upward and a downward search.  Returns the
    trajectories of each point.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    suites = [_suite(reference.arch, None if classes is None else classes[i]) for i in range(len(xs))]
    if not all(suites):
        raise ValueError("every test point needs at least one class to search")
    flat = search_batch(xs, data, reference, config, [(i, o, keys) for i, suite in enumerate(suites) for o, keys in suite])
    out, pos = [], 0
    for suite in suites:
        out.append(flat[pos : pos + len(suite)])
        pos += len(suite)
    return out


def trajectory_to_jsonl(traj: SearchTrajectory, path):
    """One line-delimited record per visited model.

    Each line is what `json.dumps` writes for the record's dict, with c
    and the losses as floats, byte for byte: floats as their `repr`, and
    NaN, Infinity and -Infinity for the non-finite ones.
    """
    lines = []
    columns = (traj.step, traj.c, traj.adv_loss, traj.pen_loss, traj.mean_train_loss, traj.pred)
    for step, c, adv, pen, loss, pred in zip(*(col.tolist() for col in columns)):
        if traj.head == "categorical":
            dist = f'{{"kind": "categorical", "probs": [{", ".join(map(repr, pred))}]}}'
        else:
            mean, variance = pred
            dist = f'{{"kind": "gaussian", "mean": {mean!r}, "variance": {variance!r}}}'
        lines.append(f'{{"step": {step}, "c": {c!r}, "L_adv": {adv!r}, "L_pen": {pen!r}, "mean_train_loss": {loss!r}, "dist": {dist}}}\n')
    # no key or kind holds "nan" or "inf", so these only rewrite float reprs
    text = "".join(lines).replace("nan", "NaN").replace("inf", "Infinity")
    with open(path, "w") as f:
        f.write(text)
