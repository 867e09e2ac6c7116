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
parameters, Adam moments and gradients are (K, P) stacks, the activations
(K, n, width) stacks, and the records and best-iterate choice are
vectorized across the K searches.  Each search's slice of every stacked
operation has the bits of the same operation run for that search alone,
so a search's records and best iterate do not depend on what else is in
its batch.  The test rows get their own pass, apart from the data rows,
and a search inside its slack backpropagates its test row alone.  A search
that hits a non-finite loss leaves the stack; the others go on.  What the
reference fixes is computed once per batch, not once per search: its
prediction rows at the test inputs, its full-data loss L_ref and the slack
gamma, the data's target rows and, for a last-layer search, the
penultimate features of the data and of the test inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .measures import _check_rows, _kl_cat, _kl_gauss, entropy_cat, entropy_gauss
from .models import (
    Adam,
    ArchSpec,
    ModelParams,
    backward,
    cross_entropy,
    cross_entropy_loss,
    forward,
    head_predictions,
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
    "adversarial_model_search",
    "targeted_search_suite",
    "regression_search_pair",
    "trajectory_to_jsonl",
    "FEASIBILITY_AUDIT",
]

# (target tag, best full-data penalty, no_feasible flag) for every search
# run in this process; lets a verification suite audit the feasibility
# contract across everything that executed.
FEASIBILITY_AUDIT: list[tuple[str, float, bool]] = []

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
        if not self.c0 > 0:
            raise ValueError("c0 must be positive")
        if self.gamma is not None and self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.delta_scope not in ("all_params", "last_layer", "bias_only"):
            raise ValueError(f"unknown delta_scope {self.delta_scope!r}")


@dataclass(frozen=True)
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


class ObjectiveForward(NamedTuple):
    """One forward pass of the stacked search objective: the batch rows and the test rows."""

    batch_acts: list  # layer inputs, then head outputs, of the batch rows
    batch_loss: np.ndarray  # (K,): mean cross-entropy of each search's batch rows against their target rows
    batch_grad: np.ndarray  # d batch_loss / d(batch head outputs)
    test_acts: list  # the same for the test rows, (K, 1, width) each
    adv: np.ndarray  # (K,): L_adv
    adv_grad: np.ndarray  # dL_adv / d(test-row head outputs), (K, 1, k)


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
    on the test row.  Parameters come as a (K, P) `ModelParams` stack, one
    model per search.
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

    def test_pass(self, params: ModelParams):
        """Each model's pass at its own test row: (activations, L_adv, dL_adv / d outputs)."""
        # the test rows get their own pass: stacked onto the batch GEMM their
        # outputs can move by an ulp, and an unmoved iterate would then
        # diverge from the reference by a spurious KL > 0
        test_acts = forward(params, self.x)
        ce, grad = cross_entropy(params.arch, test_acts[-1], self.target)
        if self.is_class.all():
            return test_acts, ce, grad
        if not self.is_class.any():
            return test_acts, self.ref_entropy - ce, -grad
        return test_acts, np.where(self.is_class, ce, self.ref_entropy - ce), np.where(self.is_class[:, None, None], grad, -grad)

    def forward(self, params: ModelParams, bx: np.ndarray, bt: np.ndarray) -> ObjectiveForward:
        """The objectives' terms at the batch inputs `bx`, whose `models.target_rows` are `bt`.

        `bx` is one (n, width) batch for every search or a (K, n, width) stack of batches.
        """
        batch_acts = forward(params, bx)
        batch_loss, batch_grad = cross_entropy(params.arch, batch_acts[-1], bt)
        test_acts, adv, adv_grad = self.test_pass(params)
        return ObjectiveForward(batch_acts, batch_loss, batch_grad, test_acts, adv, adv_grad)

    def _violation(self, fwd: ObjectiveForward) -> np.ndarray:
        viol = self.direction * (self.ref[:, 0] - fwd.test_acts[-1][:, 0, 0])
        return np.where(self.direction != 0, viol, 0.0)

    def backward(self, params: ModelParams, fwd: ObjectiveForward, c: float) -> np.ndarray:
        """Flat gradients of the K objectives at penalty weight c, one row per search."""
        grad_x = fwd.adv_grad
        if self.direction.any():
            pushed = self._violation(fwd) > 0.0
            if pushed.any():
                grad_x = grad_x.copy()
                grad_x[pushed, 0, 0] -= c * self.direction[pushed]
        active = fwd.batch_loss - self.bound > 0.0
        if active.all():
            return _penalized_backward(params, fwd.batch_acts, fwd.test_acts, fwd.batch_grad, grad_x, c)
        # inside the slack the batch rows carry no gradient
        grad = backward(params, fwd.test_acts, grad_x)
        if active.any():
            rows = np.flatnonzero(active)
            batch_acts = [a[rows] if a.ndim == 3 else a for a in fwd.batch_acts]
            sub = ModelParams(params.arch, params.values[rows])
            grad[rows] = _penalized_backward(sub, batch_acts, [t[rows] for t in fwd.test_acts], fwd.batch_grad[rows], grad_x[rows], c)
        return grad

    def loss_and_grad(self, params: ModelParams, bx: np.ndarray, bt: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
        fwd = self.forward(params, bx, bt)
        loss = fwd.adv + c * np.maximum(fwd.batch_loss - self.bound, 0.0) + c * np.maximum(self._violation(fwd), 0.0)
        return loss, self.backward(params, fwd, c)


def _penalized_backward(params: ModelParams, batch_acts, test_acts, batch_grad, grad_x, c) -> np.ndarray:
    """One backward pass over each model's batch rows, at penalty weight c, and its test row."""
    k = len(grad_x)
    acts = [np.concatenate([a if a.ndim == 3 else a[None].repeat(k, axis=0), t], axis=-2) for a, t in zip(batch_acts, test_acts)]
    return backward(params, acts, np.concatenate([c * batch_grad, grad_x], axis=-2))


def _full_losses(params: ModelParams, x: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Full-data loss of each model of the stack, in blocks of bounded size."""
    step = max(1, _LOSS_BLOCK // targets.size)
    values = params.values
    return np.concatenate(
        [cross_entropy_loss(params.arch, forward(ModelParams(params.arch, values[a : a + step]), x)[-1], targets) for a in range(0, len(values), step)]
    )


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

    records: list[list[TrajectoryRecord]] = [[] for _ in range(k)]
    best_idx, best_div, best_values = np.full(k, -1), np.full(k, -np.inf), np.empty((k, warch.param_count()))
    nan_abort = np.zeros(k, dtype=bool)

    directions = objective.direction
    has_direction = bool(directions.any())

    def add_records(slots, keep, steps, c, adv, pen, mtl, out, values):
        """Record the models `values` of searches `slots` where `keep` holds; update the best iterates.

        `out` holds the models' head outputs at their test rows; the other
        arguments hold one entry per search.
        """
        if not keep.all():
            slots, steps, adv, pen, mtl, out, values = slots[keep], steps[keep], adv[keep], pen[keep], mtl[keep], out[keep], values[keep]
        preds = head_predictions(arch, out)[:, 0]
        full_pen = mtl - bound
        refs_of = ref_rows[slots]
        # KL(reference row || prediction row); the reference rows are checked
        # once per batch, candidate rows by the split
        div = _kl_cat(refs_of, preds) if arch.head == "categorical" else _kl_gauss(refs_of, preds)
        for s, step, a, p, loss, fp, d, pred in zip(slots.tolist(), steps.tolist(), adv.tolist(), pen.tolist(), mtl.tolist(), full_pen.tolist(), div.tolist(), preds):
            records[s].append(TrajectoryRecord(step, c, a, p, loss, fp, d, pred))
        better = (full_pen <= 0.0) & (div > best_div[slots])
        if has_direction:
            # a direction search keeps only iterates on its side of the reference mean
            direction = directions[slots]
            better &= (direction == 0) | (direction * (preds[:, 0] - refs_of[:, 0]) > 0.0)
        if better.any():
            won = slots[better]
            best_idx[won] = [len(records[s]) - 1 for s in won]
            best_div[won] = div[better]
            best_values[won] = values[better]

    # Record the exact reference first; for nudged searches the loop below
    # starts from a distinct (nudged) model.
    step0 = np.array([not np.array_equal(b, work.values) for b in base], dtype=int)
    first = np.flatnonzero(step0)
    if first.size and np.isfinite(l_ref):
        ref_stack = ModelParams(warch, np.tile(work.values, (first.size, 1)))
        acts, adv, _ = objective.subset(step0 == 1).test_pass(ref_stack)
        every = np.ones(first.size, dtype=bool)
        add_records(first, every, np.zeros_like(first), inner.c0, adv, np.full(first.size, l_ref - bound), np.full(first.size, l_ref), acts[-1], ref_stack.values)

    live = np.arange(k)
    values, base = base.copy(), base
    all_free = mask.all()
    opt = Adam(values.shape, inner.lr, inner.weight_decay, eps=inner.adam_eps)
    c = inner.c0
    for m in range(1, inner.steps + 1):
        if batch < n:
            idx = np.stack([rngs[s].choice(n, size=batch, replace=False) for s in live])
            bx, bt = x[idx], targets[idx]
        else:
            bx, bt = x, targets
        cur = ModelParams(warch, values)
        fwd = objective.forward(cur, bx, bt)
        ok = np.isfinite(fwd.adv) & np.isfinite(fwd.batch_loss)
        if batch < n:
            mtl = np.full(len(live), np.nan)
            if ok.any():
                mtl[ok] = _full_losses(cur if ok.all() else ModelParams(warch, values[ok]), x, targets)
            ok &= np.isfinite(mtl)
        else:
            mtl = fwd.batch_loss
        add_records(live, ok, step0[live] + (m - 1), c, fwd.adv, fwd.batch_loss - bound, mtl, fwd.test_acts[-1], values)
        if not ok.all():
            # a non-finite loss stops its search; the others go on from the same step
            nan_abort[live[~ok]] = True
            live = live[ok]
            if not live.size:
                break
            values, base, objective = values[ok], base[ok], objective.subset(ok)
            opt.m, opt.v = opt.m[ok], opt.v[ok]
            if batch < n:
                bx, bt = bx[ok], bt[ok]
            cur = ModelParams(warch, values)
            fwd = objective.forward(cur, bx, bt)

        g = objective.backward(cur, fwd, c)
        if not all_free:
            g[:, ~mask] = 0.0
        values = opt.step(values, g)
        if not all_free:
            values[:, ~mask] = base[:, ~mask]
        if lo is not None:
            values[:, mask] = np.clip(values[:, mask], lo, hi)
        if m % inner.eta_every == 0:
            c *= inner.eta_factor
            # each penalty stage is its own unconstrained subproblem; a stale
            # second-moment estimate from a boundary contact at the previous,
            # smaller c would throttle the steps of every later stage
            opt = Adam(values.shape, inner.lr, inner.weight_decay, eps=inner.adam_eps)

    if live.size:
        # the final updated models were visited too
        cur = ModelParams(warch, values)
        acts, adv, _ = objective.test_pass(cur)
        mtl = _full_losses(cur, x, targets)
        ok = np.isfinite(adv)
        nan_abort[live[~ok]] = True
        add_records(live, ok & np.isfinite(mtl), step0[live] + inner.steps, c, adv, mtl - bound, mtl, acts[-1], values)

    trajectories = []
    for s, (point, o, _) in enumerate(searches):
        no_feasible = bool(best_idx[s] < 0 or best_div[s] <= 0.0)
        if no_feasible:
            # no feasible iterate improved on the reference: return the reference
            if not records[s]:
                records[s].append(TrajectoryRecord(0, inner.c0, 0.0, -gamma, l_ref, -gamma, 0.0, refs[point]))
            best, best_params = 0, work.values
        else:
            best, best_params = int(best_idx[s]), best_values[s]
        if last is not None:
            full = reference.values.copy()
            full[last] = best_params
            best_params = full
        traj = SearchTrajectory(_target_tag(o), arch.head, records[s], best, ModelParams(arch, best_params), no_feasible, bool(nan_abort[s]), l_ref, gamma)
        FEASIBILITY_AUDIT.append((traj.target, traj.best.full_pen, traj.no_feasible))
        trajectories.append(traj)
    return trajectories


def adversarial_model_search(
    x: np.ndarray,
    data,
    reference: ModelParams,
    config: SearchConfig,
    objective="divergence",
    seed_keys: Sequence[int] = (),
) -> SearchTrajectory:
    """Run one penalty-method search: `search_batch` with one search.

    `objective` is "divergence", ("class", c) for a targeted classification
    search, or ("direction", +1 | -1) for a one-sided regression search.
    """
    (traj,) = search_batch(np.atleast_2d(x), data, reference, config, [(0, objective, tuple(seed_keys))])
    return traj


def best_under_slack(traj: SearchTrajectory, gamma: float) -> TrajectoryRecord:
    """Re-select the best record under a different slack.

    Records carry full-data training losses, so feasibility for any slack
    is decidable after the fact.  Since a larger slack only enlarges the
    feasible subset of the same records, the selected divergence is
    monotone nondecreasing in gamma.
    """
    bound = traj.reference_loss + gamma
    best = None
    for r in traj.records:
        if r.mean_train_loss <= bound and (best is None or r.divergence > best.divergence):
            best = r
    return best if best is not None else traj.records[0]


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


def targeted_search_suite(x, data, reference: ModelParams, config: SearchConfig, classes=None) -> list[SearchTrajectory]:
    """One targeted search per class (or per entry of `classes`), run in lock-step.

    Each trajectory's random stream is keyed by the class identity, so the
    result set does not depend on the order classes are visited.
    """
    if reference.arch.head != "categorical":
        raise ValueError("targeted searches need a categorical head")
    return search_suites(x, data, reference, config, None if classes is None else [classes])[0]


def regression_search_pair(x, data, reference: ModelParams, config: SearchConfig) -> tuple[SearchTrajectory, SearchTrajectory]:
    """Upward and downward searches around a regression reference, run in lock-step."""
    if reference.arch.head != "gaussian_scalar":
        raise ValueError("regression searches need a gaussian head")
    up, down = search_suites(x, data, reference, config)[0]
    return up, down


def trajectory_to_jsonl(traj: SearchTrajectory, path):
    """One line-delimited record per visited model."""
    with open(path, "w") as f:
        for r in traj.records:
            if traj.head == "categorical":
                dist = {"kind": "categorical", "probs": [float(p) for p in r.pred]}
            else:
                dist = {"kind": "gaussian", "mean": float(r.pred[0]), "variance": float(r.pred[1])}
            f.write(
                json.dumps(
                    {
                        "step": r.step,
                        "c": r.c,
                        "L_adv": r.adv_loss,
                        "L_pen": r.pen_loss,
                        "mean_train_loss": r.mean_train_loss,
                        "dist": dist,
                    }
                )
                + "\n"
            )
