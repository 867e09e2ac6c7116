"""Penalty-method search for adversarial models.

An adversarial model contradicts a reference model's prediction at one
test input while explaining the training data essentially as well (its
mean training loss stays within a slack gamma of the reference's).  The
search minimizes

    L = L_adv + c * relu(L_pen),      L_pen = batch_loss - (L_ref + gamma)

with Adam, increasing the penalty weight c on a multiplicative schedule so
late iterates are pushed back inside the feasible region.  Each Adam update
takes one forward and one closed-form backward pass (`SearchObjective`):
the gradient enters as per-row gradients at the head outputs of the data
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
non-finite loss leaves the stack; the others go on.  What the reference
fixes is computed once per batch, not once per search: its prediction rows
at the test inputs, its full-data loss L_ref and the slack gamma, the
data's target rows and, for a last-layer search, the penultimate features
of the data and of the test inputs.

A step allocates no buffer of the batch's size: a `_Workspace`, built
once per batch and again only when a NaN abort shrinks K, holds the
writable (K, P) parameter stack and its per-layer views (Adam updates it
in place and zeroes its moments in place at each penalty stage), one
(K, n + 1, width) activation buffer per layer and the (K, n + 1, k)
head-output gradients.  Rows :n of each buffer are the batch rows and row
n is each search's test row.  The test row still gets its own GEMM,
written into row n: in the batch rows' GEMM its outputs can move by an
ulp.  The penalized backward pass runs on the whole buffer, and a search
inside its slack backpropagates its row n alone.  The records go into
per-batch columns, one row per step (`_Records`); each trajectory's
`TrajectoryRecord` list is built once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .measures import _check_rows, _kl_cat, _kl_gauss, entropy_cat, entropy_gauss
from .models import (
    Adam,
    ArchSpec,
    ModelParams,
    backward_layers,
    cross_entropy,
    cross_entropy_and_predictions,
    cross_entropy_loss,
    forward,
    forward_layers,
    head_predictions,
    layer_views,
    target_rows,
)
from .rng import derive_rng

__all__ = [
    "SearchConfig",
    "SearchObjective",
    "TrajectoryRecord",
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
        if self.eta_factor <= 1.0:
            raise ValueError(f"eta_factor must exceed 1, got {self.eta_factor}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.eta_every < 1:
            raise ValueError(f"eta_every must be >= 1, got {self.eta_every}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.c0 > 0:
            raise ValueError("c0 must be positive")
        if self.gamma is not None and self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.delta_scope not in ("all_params", "last_layer", "bias_only"):
            raise ValueError(f"unknown delta_scope {self.delta_scope!r}")


@dataclass(slots=True)
class TrajectoryRecord:
    step: int
    c: float
    adv_loss: float  # the minimized objective term (negated divergence / target CE)
    pen_loss: float  # mini-batch penalty at this iterate
    mean_train_loss: float  # full-training-set mean loss
    full_pen: float  # mean_train_loss - (L_ref + gamma)
    divergence: float  # divergence of this model's prediction from the reference
    pred: np.ndarray  # prediction row at the test input: class probabilities or (mean, variance)


@dataclass
class SearchTrajectory:
    target: str
    head: str  # the reference's head: "categorical" | "gaussian_scalar"
    records: list[TrajectoryRecord]
    best_index: int
    best_params: ModelParams
    no_feasible: bool
    nan_abort: bool
    reference_loss: float
    gamma: float

    @property
    def best(self) -> TrajectoryRecord:
        return self.records[self.best_index]


def _scope_mask(arch: ArchSpec, config: SearchConfig) -> np.ndarray:
    if config.free_mask is not None:
        mask = np.asarray(config.free_mask, dtype=bool)
        if mask.shape != (arch.param_count(),):
            raise ValueError("free_mask length does not match parameter count")
        return mask
    mask = np.zeros(arch.param_count(), dtype=bool)
    slices = arch.layer_slices()
    if config.delta_scope == "all_params":
        mask[:] = True
    elif config.delta_scope == "last_layer":
        ws, bs = slices[-1]
        mask[ws] = True
        mask[bs] = True
    else:  # bias_only
        for _, bs in slices:
            mask[bs] = True
    return mask


def _target_tag(objective) -> str:
    if isinstance(objective, tuple) and objective[0] == "direction":
        return "direction:+" if int(objective[1]) > 0 else "direction:-"
    if isinstance(objective, tuple) and objective[0] == "class":
        return f"class:{int(objective[1])}"
    return "divergence"


@dataclass(frozen=True)
class SearchObjective:
    """The objectives of K lock-step searches, with their gradients by backprop.

        L_k = L_adv,k(x_k) + c * relu(batch_loss_k - bound) + c * relu(direction_k * (ref_mean_k - mean(x_k)))

    The last term exists for ("direction", +1 | -1) objectives only.  The
    penalty weights the constraint *violation*: a signed term under a
    growing c would collapse late iterates onto the loss minimum instead of
    the constrained optimum.  Both L_adv and the batch loss are
    `models.cross_entropy`: L_adv is CE(one-hot row of k) for a class
    objective and -KL(ref || model) = H[ref] - CE(ref) otherwise.  The
    gradient enters the network as per-row gradients at the head outputs:
    c * 1[pen > 0] * dCE on the batch rows, dL_adv plus the violation term
    on the test row (`_Workspace.backward`).
    """

    x: np.ndarray  # (K, 1, input width): each search's test input
    ref: np.ndarray  # (K, k): the reference's prediction row at each test input
    objectives: tuple  # per search: "divergence" | ("class", k) | ("direction", +1 | -1)
    bound: float  # L_ref + gamma
    head: str  # the model's head: "categorical" | "gaussian_scalar"
    target: np.ndarray = field(init=False)  # (K, 1, k): each test row's cross-entropy target
    ref_entropy: np.ndarray = field(init=False)  # (K,): H[ref], 0 for a class objective
    is_class: np.ndarray = field(init=False)  # (K,) bool
    direction: np.ndarray = field(init=False)  # (K,): the sign of a direction objective, else 0

    def __post_init__(self):
        # constants of the searches, derived once
        targets, entropies, is_class, direction = [], [], [], []
        for ref, objective in zip(self.ref, self.objectives):
            kind = objective[0] if isinstance(objective, tuple) else objective
            if kind == "class":
                targets.append(np.eye(len(ref))[int(objective[1])])
                entropies.append(0.0)
            else:
                targets.append(ref)
                entropies.append(entropy_cat(ref) if self.head == "categorical" else float(entropy_gauss(ref[1])))
            is_class.append(kind == "class")
            direction.append(int(objective[1]) if kind == "direction" else 0)
        object.__setattr__(self, "target", np.array(targets).reshape(len(targets), 1, -1))
        object.__setattr__(self, "ref_entropy", np.array(entropies))
        object.__setattr__(self, "is_class", np.array(is_class, dtype=bool))
        object.__setattr__(self, "direction", np.array(direction, dtype=int))

    def subset(self, keep: np.ndarray) -> "SearchObjective":
        """The objectives of the searches `keep` selects."""
        return replace(self, x=self.x[keep], ref=self.ref[keep], objectives=tuple(o for o, k in zip(self.objectives, keep) if k))

    def adversarial(self, arch: ArchSpec, out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """L_adv at the test rows' head outputs `out`, (K, 1, k), its gradient there, and the models' prediction rows."""
        ce, grad, preds = cross_entropy_and_predictions(arch, out, self.target)
        if self.is_class.all():
            return ce, grad, preds
        if not self.is_class.any():
            return self.ref_entropy - ce, -grad, preds
        return np.where(self.is_class, ce, self.ref_entropy - ce), np.where(self.is_class[:, None, None], grad, -grad), preds

    def violation(self, out: np.ndarray) -> np.ndarray:
        """direction * (ref mean - mean) at the test rows' head outputs `out`; 0 for a search without a direction."""
        viol = self.direction * (self.ref[:, 0] - out[:, 0, 0])
        return np.where(self.direction != 0, viol, 0.0)

    def loss_and_grad(self, params: ModelParams, bx: np.ndarray, bt: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
        """The K objectives at penalty weight c, and their flat gradients, one row per search.

        `params` is a (K, P) stack, one model per search; `bx` is one
        (n, width) batch for every search or a (K, n, width) stack of
        batches, and `bt` holds their `models.target_rows`.
        """
        ws = _Workspace(self, params.arch, params.values, np.shape(bx)[-2])
        ws.batch_x[...] = bx
        batch_loss, adv = ws.forward(bt)
        loss = adv + c * np.maximum(batch_loss - self.bound, 0.0) + c * np.maximum(self.violation(ws.test_out), 0.0)
        return loss, ws.backward(c)


class _Workspace:
    """The buffers of K lock-step searches' steps: allocated once per batch, and again when a NaN abort shrinks K.

    `values` is the writable (K, P) parameter stack, updated in place, and
    `layers` its per-layer views.  `acts[l]` is the (K, n + 1, width)
    input of layer l, and the last entry holds the head outputs: rows :n
    are the batch rows and row n is each search's test row.  `grad_out`
    holds the gradients at the head outputs of the same rows and `grad`
    the flat gradients.
    """

    def __init__(self, objective: SearchObjective, arch: ArchSpec, values: np.ndarray, n: int):
        k = len(values)
        self.objective, self.arch, self.n = objective, arch, n
        self.values = np.array(values, dtype=np.float64)
        self.layers = layer_views(arch, self.values)
        self.acts = [np.empty((k, n + 1, w)) for w in arch.widths]
        self.acts[0][:, n:] = objective.x
        self.batch_acts = [a[:, :n] for a in self.acts]
        self.test_acts = [a[:, n:] for a in self.acts]
        self.grad_out = np.empty((k, n + 1, arch.widths[-1]))
        self.grad = np.empty_like(self.values)

    @property
    def batch_x(self) -> np.ndarray:
        """The (K, n, input width) batch rows; the caller fills them."""
        return self.batch_acts[0]

    @property
    def test_out(self) -> np.ndarray:
        """The (K, 1, k) head outputs at the test rows, from the last `forward`."""
        return self.test_acts[-1]

    def subset(self, keep: np.ndarray) -> "_Workspace":
        """A workspace for the searches `keep` selects, with their parameters and batch rows."""
        ws = _Workspace(self.objective.subset(keep), self.arch, self.values[keep], self.n)
        ws.batch_x[...] = self.batch_x[keep]
        return ws

    def forward(self, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each search's batch loss against `targets`, the batch rows' target rows, and its L_adv.

        Their gradients at the head outputs are kept for `backward`.
        """
        last = len(self.layers) - 1
        for li, (w, b) in enumerate(self.layers):
            # the test rows keep their own GEMM: in the batch rows' GEMM their
            # outputs can move by an ulp, and an unmoved iterate would then
            # diverge from the reference by a spurious KL > 0
            np.matmul(self.batch_acts[li], w, out=self.batch_acts[li + 1])
            np.matmul(self.test_acts[li], w, out=self.test_acts[li + 1])
            out = self.acts[li + 1]
            out += b
            if li < last:
                np.maximum(out, 0.0, out=out)
        self.batch_loss, self.batch_grad = cross_entropy(self.arch, self.batch_acts[-1], targets)
        adv, self.adv_grad, self.test_preds = self.objective.adversarial(self.arch, self.test_out)
        return self.batch_loss, adv

    def backward(self, c: float) -> np.ndarray:
        """Flat gradients of the K objectives at penalty weight c, one row per search, at the last `forward`."""
        obj, n = self.objective, self.n
        grad_x = self.grad_out[:, n:]
        grad_x[...] = self.adv_grad
        if obj.direction.any():
            pushed = obj.violation(self.test_out) > 0.0
            if pushed.any():
                grad_x[pushed, 0, 0] -= c * obj.direction[pushed]
        active = self.batch_loss - obj.bound > 0.0
        if active.all():
            np.multiply(self.batch_grad, c, out=self.grad_out[:, :n])
            return backward_layers(self.arch, self.layers, self.acts, self.grad_out, self.grad)
        # inside the slack the batch rows carry no gradient
        grad = backward_layers(self.arch, self.layers, self.test_acts, grad_x, self.grad)
        if active.any():
            rows = np.flatnonzero(active)
            if rows[-1] - rows[0] < rows.size:
                # consecutive searches: views, no copies
                rows = slice(rows[0], rows[-1] + 1)
            grad_out = self.grad_out[rows]
            np.multiply(self.batch_grad[rows], c, out=grad_out[:, :n])
            layers = [(w[rows], b[rows]) for w, b in self.layers]
            grad[rows] = backward_layers(self.arch, layers, [a[rows] for a in self.acts], grad_out, np.empty((len(grad_out), grad.shape[-1])))
        return grad


class _Records:
    """The records of K searches in per-batch columns, one row per step.

    Row 0 holds the exact reference, row m the model step m starts from and
    the last row the final model; a search has a record at the rows where
    `valid` holds, and `count` records so far.  Each search's
    `TrajectoryRecord` list is built once, at the end.
    """

    def __init__(self, k: int, steps: int, width: int):
        rows = steps + 2
        self.valid = np.zeros((rows, k), dtype=bool)
        self.count = np.zeros(k, dtype=int)
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
        self.count[at] += 1

    def records(self, s: int, step0: int, bound: float) -> list[TrajectoryRecord]:
        """Search s's records: row m is step m - 1 + step0, and full_pen is each loss less `bound`."""
        rows = np.flatnonzero(self.valid[:, s])
        loss = self.loss[rows, s]
        columns = [col.tolist() for col in (rows - 1 + step0, self.c[rows], self.adv[rows, s], self.pen[rows, s], loss, loss - bound, self.div[rows, s])]
        return [TrajectoryRecord(*row, pred) for *row, pred in zip(*columns, self.pred[rows, s])]


def _full_losses(arch: ArchSpec, layers, x: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Full-data loss of each model of a stack, given by its per-layer views, in blocks of bounded size."""
    step = max(1, _LOSS_BLOCK // targets.size)
    losses = np.empty(len(layers[0][0]))
    for a in range(0, len(losses), step):
        block = [(w[a : a + step], b[a : a + step]) for w, b in layers]
        losses[a : a + step] = cross_entropy_loss(arch, forward_layers(arch, block, x)[-1], targets)
    return losses


def search_batch(xs: np.ndarray, data, reference: ModelParams, config: SearchConfig, searches: Sequence[tuple]) -> list[SearchTrajectory]:
    """Run penalty-method searches in lock-step; see the module docstring.

    `xs` holds the test inputs, one per row.  `searches` holds one
    (row of `xs`, objective, seed_keys) triple per search: the objective is
    "divergence", ("class", c) for a targeted classification search, or
    ("direction", +1 | -1) for a one-sided regression search, and the
    search's random stream is `derive_rng(config.seed, *seed_keys)`.
    Returns the trajectories in the order of `searches`; each is the one
    its search gives when run alone.
    """
    if not searches:
        return []
    arch = reference.arch
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    # constants of the batch; each test input gets its own one-row pass
    test_acts = forward(reference, xs[:, None, :])
    refs = head_predictions(arch, test_acts[-1])[:, 0]
    _check_rows(arch.head, refs, "reference prediction")
    targets = target_rows(arch, data.y)
    data_acts = forward(reference, data.x)
    l_ref = cross_entropy_loss(arch, data_acts[-1], targets)
    gamma = config.gamma if config.gamma is not None else 0.05 * abs(l_ref)
    bound = l_ref + gamma

    # Last-layer searches run on cached penultimate features: the frozen
    # layers never change, so the data only has to flow through them once.
    work, test_x, x, inner, last = reference, xs[:, None, :], data.x, config, None
    if config.delta_scope == "last_layer" and arch.n_layers > 1 and config.free_mask is None:
        # the last layer's weights and bias close the flat vector
        last = slice(arch.layer_slices()[-1][0].start, arch.param_count())
        work = ModelParams(ArchSpec(widths=arch.widths[-2:], head=arch.head), reference.values[last])
        test_x, x = test_acts[-2], data_acts[-2]
        inner = replace(config, delta_scope="all_params")
    warch = work.arch
    n = len(x)
    batch = n if inner.batch_size is None else min(inner.batch_size, n)
    mask = _scope_mask(warch, inner)
    lo, hi = inner.param_box if inner.param_box is not None else (None, None)

    k = len(searches)
    points = np.array([point for point, _, _ in searches], dtype=int)
    ref_rows = refs[points]
    objective = SearchObjective(test_x[points], ref_rows, tuple(o for _, o, _ in searches), bound, arch.head)
    rngs = [derive_rng(inner.seed, *keys) for _, _, keys in searches]
    base = np.tile(work.values, (k, 1))
    bias = warch.layer_slices()[-1][1].start  # the mean-output bias
    for s, (direction, o) in enumerate(zip(objective.direction, objective.objectives)):
        if direction:
            base[s, bias] += direction * inner.bias_nudge
        elif o == "divergence" and inner.bias_nudge:
            # the divergence gradient vanishes at the exact reference; a tiny
            # seeded perturbation of the free parameters provides the first step
            base[s, mask] += inner.bias_nudge * rngs[s].standard_normal(int(mask.sum()))

    records = _Records(k, inner.steps, refs.shape[-1])
    best_idx, best_div, best_values = np.full(k, -1), np.full(k, -np.inf), np.empty((k, warch.param_count()))
    nan_abort = np.zeros(k, dtype=bool)

    directions = objective.direction
    has_direction = bool(directions.any())

    def add_records(row, slots, keep, c, adv, pen, mtl, preds, values):
        """Record, at `row`, the models `values` of searches `slots` where `keep` holds; update the best iterates.

        `preds` holds the models' (K, 1, k) prediction rows at their test
        rows; the other arguments hold one entry per search.
        """
        if not keep.all():
            slots, adv, pen, mtl, preds, values = slots[keep], adv[keep], pen[keep], mtl[keep], preds[keep], values[keep]
        at = slice(None) if len(slots) == k else slots  # every search, or some
        preds = preds[:, 0]
        full_pen = mtl - bound
        refs_of = ref_rows[at]
        # KL(reference row || prediction row); the reference rows are checked
        # once per batch, candidate rows by the split
        div = _kl_cat(refs_of, preds) if arch.head == "categorical" else _kl_gauss(refs_of, preds)
        records.add(row, at, c, adv, pen, mtl, div, preds)
        better = (full_pen <= 0.0) & (div > best_div[at])
        if has_direction:
            # a direction search keeps only iterates on its side of the reference mean
            direction = directions[at]
            better &= (direction == 0) | (direction * (preds[:, 0] - refs_of[:, 0]) > 0.0)
        if better.any():
            won = slots[better]
            best_idx[won] = records.count[won] - 1
            best_div[won] = div[better]
            best_values[won] = values[better]

    # Record the exact reference first; for nudged searches the loop below
    # starts from a distinct (nudged) model.
    step0 = np.array([not np.array_equal(b, work.values) for b in base], dtype=int)
    first = np.flatnonzero(step0)
    if first.size and np.isfinite(l_ref):
        ref_stack = ModelParams(warch, np.tile(work.values, (first.size, 1)))
        out = forward(ref_stack, objective.x[first])[-1]
        adv, _, preds = objective.subset(step0 == 1).adversarial(warch, out)
        every = np.ones(first.size, dtype=bool)
        add_records(0, first, every, inner.c0, adv, np.full(first.size, l_ref - bound), np.full(first.size, l_ref), preds, ref_stack.values)

    live = np.arange(k)
    ws = _Workspace(objective, warch, base, batch)
    bt = targets
    if batch == n:
        ws.batch_x[...] = x
    frozen = np.flatnonzero(~mask)
    kept = base[:, frozen]  # the frozen parameters' values, restored after each update
    free = np.flatnonzero(mask)
    opt = Adam(ws.values.shape, inner.lr, inner.weight_decay, eps=inner.adam_eps)
    c = inner.c0
    for m in range(1, inner.steps + 1):
        if batch < n:
            idx = np.stack([rngs[s].choice(n, size=batch, replace=False) for s in live])
            ws.batch_x[...] = x[idx]
            bt = targets[idx]
        batch_loss, adv = ws.forward(bt)
        ok = np.isfinite(adv) & np.isfinite(batch_loss)
        if batch < n:
            mtl = np.full(len(live), np.nan)
            if ok.any():
                mtl[ok] = _full_losses(warch, ws.layers if ok.all() else [(w[ok], b[ok]) for w, b in ws.layers], x, targets)
            ok &= np.isfinite(mtl)
        else:
            mtl = batch_loss
        add_records(m, live, ok, c, adv, batch_loss - bound, mtl, ws.test_preds, ws.values)
        if not ok.all():
            # a non-finite loss stops its search; the others go on from the same step
            nan_abort[live[~ok]] = True
            live = live[ok]
            if not live.size:
                break
            ws, kept = ws.subset(ok), kept[ok]
            opt.m, opt.v = opt.m[ok], opt.v[ok]
            if batch < n:
                bt = bt[ok]
            ws.forward(bt)

        g = ws.backward(c)
        if frozen.size:
            g[:, frozen] = 0.0
        opt.step(ws.values, g, out=ws.values)
        if frozen.size:
            ws.values[:, frozen] = kept
        if lo is not None:
            ws.values[:, free] = np.clip(ws.values[:, free], lo, hi)
        if m % inner.eta_every == 0:
            c *= inner.eta_factor
            # each penalty stage is its own unconstrained subproblem; a stale
            # second-moment estimate from a boundary contact at the previous,
            # smaller c would throttle the steps of every later stage
            opt.reset()

    if live.size:
        # the final updated models were visited too
        batch_loss, adv = ws.forward(bt)
        mtl = batch_loss if batch == n else _full_losses(warch, ws.layers, x, targets)
        ok = np.isfinite(adv)
        nan_abort[live[~ok]] = True
        add_records(inner.steps + 1, live, ok & np.isfinite(mtl), c, adv, mtl - bound, mtl, ws.test_preds, ws.values)

    trajectories = []
    for s, (point, o, _) in enumerate(searches):
        recs = records.records(s, step0[s], bound)
        no_feasible = bool(best_idx[s] < 0 or best_div[s] <= 0.0)
        if no_feasible:
            # no feasible iterate improved on the reference: return the reference
            if not recs:
                recs.append(TrajectoryRecord(0, float(inner.c0), 0.0, -gamma, l_ref, -gamma, 0.0, refs[point]))
            best, best_params = 0, work.values
        else:
            best, best_params = int(best_idx[s]), best_values[s]
        if last is not None:
            full = reference.values.copy()
            full[last] = best_params
            best_params = full
        trajectories.append(SearchTrajectory(_target_tag(o), arch.head, recs, best, ModelParams(arch, best_params), no_feasible, bool(nan_abort[s]), l_ref, gamma))
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
    for r in traj.records:
        if traj.head == "categorical":
            dist = f'{{"kind": "categorical", "probs": [{", ".join(map(repr, r.pred.tolist()))}]}}'
        else:
            mean, variance = r.pred.tolist()
            dist = f'{{"kind": "gaussian", "mean": {mean!r}, "variance": {variance!r}}}'
        c, adv, pen, loss = float(r.c), float(r.adv_loss), float(r.pen_loss), float(r.mean_train_loss)
        lines.append(f'{{"step": {r.step}, "c": {c!r}, "L_adv": {adv!r}, "L_pen": {pen!r}, "mean_train_loss": {loss!r}, "dist": {dist}}}\n')
    # no key or kind holds "nan" or "inf", so these only rewrite float reprs
    text = "".join(lines).replace("nan", "NaN").replace("inf", "Infinity")
    with open(path, "w") as f:
        f.write(text)
