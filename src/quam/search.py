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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .data import LabeledDataset
from .measures import _check_rows, _kl_cat, _kl_gauss, entropy_cat, entropy_gauss
from .models import (
    Adam,
    ArchSpec,
    ModelParams,
    backward,
    cross_entropy,
    forward,
    head_predictions,
    mean_train_loss,
    predict_batch,
    target_rows,
)
from .rng import derive_rng

__all__ = [
    "SearchConfig",
    "SearchObjective",
    "TrajectoryRecord",
    "SearchTrajectory",
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


def _divergence(arch: ArchSpec, ref: np.ndarray, pred: np.ndarray) -> float:
    # the reference row is checked once per search; candidate rows are checked by the split
    if arch.head == "categorical":
        return _kl_cat(ref, pred)
    return float(_kl_gauss(ref, pred))


class ObjectiveForward(NamedTuple):
    """One forward pass of the search objective: the batch rows and the test row."""

    batch_acts: list  # layer inputs, then head outputs, of the batch rows
    batch_loss: float  # mean cross-entropy of the batch rows against their target rows
    batch_grad: np.ndarray  # d batch_loss / d(batch head outputs)
    test_acts: list  # the same for the test row
    adv: float  # L_adv
    adv_grad: np.ndarray  # dL_adv / d(test-row head outputs)


@dataclass(frozen=True)
class SearchObjective:
    """The objective one search minimizes, with its gradient by backprop.

        L = L_adv(x) + c * relu(batch_loss - bound) + c * relu(direction * (ref_mean - mean(x)))

    The last term exists for ("direction", +1 | -1) objectives only.  The
    penalty weights the constraint *violation*: a signed term under a
    growing c would collapse late iterates onto the loss minimum instead of
    the constrained optimum.  Both L_adv and the batch loss are
    `models.cross_entropy`: L_adv is CE(one-hot row of k) for a class
    objective and -KL(ref || model) = H[ref] - CE(ref) otherwise.  The
    gradient enters the network as per-row gradients at the head outputs:
    c * 1[pen > 0] * dCE on the batch rows, dL_adv plus the violation term
    on the test row.
    """

    x: np.ndarray  # the test input, shape (1, input width)
    ref: np.ndarray  # the reference's prediction row at the test input
    objective: object  # "divergence" | ("class", k) | ("direction", +1 | -1)
    bound: float  # L_ref + gamma
    head: str  # the model's head: "categorical" | "gaussian_scalar"
    target: np.ndarray = field(init=False)  # the test row's cross-entropy target, shape (1, k)
    ref_entropy: Optional[float] = field(init=False)  # H[ref]; None for a class objective

    def __post_init__(self):
        # constants of the search, derived once
        if isinstance(self.objective, tuple) and self.objective[0] == "class":
            target, h = np.eye(len(self.ref))[int(self.objective[1])], None
        else:
            target, h = self.ref, entropy_cat(self.ref) if self.head == "categorical" else float(entropy_gauss(self.ref[1]))
        object.__setattr__(self, "target", target.reshape(1, -1))
        object.__setattr__(self, "ref_entropy", h)

    @property
    def direction(self) -> int:
        if isinstance(self.objective, tuple) and self.objective[0] == "direction":
            return int(self.objective[1])
        return 0

    def forward(self, params: ModelParams, bx: np.ndarray, bt: np.ndarray) -> ObjectiveForward:
        """The objective's terms at the batch inputs `bx`, whose `models.target_rows` are `bt`."""
        batch_acts = forward(params, bx)
        batch_loss, batch_grad = cross_entropy(params.arch, batch_acts[-1], bt)
        # the test row gets its own pass: stacked onto the batch GEMM its
        # outputs can move by an ulp, and an unmoved iterate would then
        # diverge from the reference by a spurious KL > 0
        test_acts = forward(params, self.x)
        ce, grad = cross_entropy(params.arch, test_acts[-1], self.target)
        adv, adv_grad = (ce, grad) if self.ref_entropy is None else (self.ref_entropy - ce, -grad)
        return ObjectiveForward(batch_acts, batch_loss, batch_grad, test_acts, adv, adv_grad)

    def _violation(self, fwd: ObjectiveForward) -> float:
        return self.direction * (self.ref[0] - fwd.test_acts[-1][0, 0]) if self.direction else 0.0

    def backward(self, params: ModelParams, fwd: ObjectiveForward, c: float) -> np.ndarray:
        """Flat gradient of L at penalty weight c."""
        grad_x = fwd.adv_grad
        if self._violation(fwd) > 0.0:
            grad_x = grad_x.copy()
            grad_x[0, 0] -= c * self.direction
        if fwd.batch_loss - self.bound > 0.0:
            acts = [np.vstack(pair) for pair in zip(fwd.batch_acts, fwd.test_acts)]
            return backward(params, acts, np.vstack([c * fwd.batch_grad, grad_x]))
        # inside the slack the batch rows carry no gradient
        return backward(params, fwd.test_acts, grad_x)

    def loss_and_grad(self, params: ModelParams, bx: np.ndarray, bt: np.ndarray, c: float) -> tuple[float, np.ndarray]:
        fwd = self.forward(params, bx, bt)
        loss = fwd.adv + c * max(fwd.batch_loss - self.bound, 0.0) + c * max(self._violation(fwd), 0.0)
        return loss, self.backward(params, fwd, c)


def adversarial_model_search(
    x: np.ndarray,
    data,
    reference: ModelParams,
    config: SearchConfig,
    objective="divergence",
    seed_keys: Sequence[int] = (),
) -> SearchTrajectory:
    """Run one penalty-method search; see the module docstring.

    `objective` is "divergence", ("class", c) for a targeted classification
    search, or ("direction", +1 | -1) for a one-sided regression search.
    """
    arch = reference.arch
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    ref = predict_batch(reference, x)[0]
    _check_rows(arch.head, ref, "reference prediction")
    l_ref = mean_train_loss(reference, data)
    gamma = config.gamma if config.gamma is not None else 0.05 * abs(l_ref)

    if isinstance(objective, tuple) and objective[0] == "direction":
        target_tag = "direction:+" if int(objective[1]) > 0 else "direction:-"
    elif isinstance(objective, tuple) and objective[0] == "class":
        target_tag = f"class:{int(objective[1])}"
    else:
        target_tag = "divergence"

    # Last-layer searches run on cached penultimate features: the frozen
    # layers never change, so the data only has to flow through them once.
    work_ref, work_x, work_data = reference, x, data
    inner, last = config, None
    if config.delta_scope == "last_layer" and arch.n_layers > 1 and config.free_mask is None:
        # the last layer's weights and bias close the flat vector
        last = slice(arch.layer_slices()[-1][0].start, arch.param_count())
        work_ref = ModelParams(ArchSpec(widths=arch.widths[-2:], head=arch.head), reference.values[last])
        work_x = forward(reference, x)[-2]
        work_data = LabeledDataset(forward(reference, data.x)[-2], data.y, data.kind)
        inner = replace(config, delta_scope="all_params")

    objective_fn = SearchObjective(work_x, ref, objective, l_ref + gamma, arch.head)
    traj = _search_core(work_data, work_ref, inner, objective_fn, target_tag, l_ref, gamma, seed_keys)

    if last is not None:
        full = reference.values.copy()
        full[last] = traj.best_params.values
        traj.best_params = ModelParams(arch, full)
    FEASIBILITY_AUDIT.append((target_tag, traj.best.full_pen, traj.no_feasible))
    return traj


def _search_core(data, reference, config, objective_fn: SearchObjective, target_tag, l_ref, gamma, seed_keys):
    arch = reference.arch
    ref = objective_fn.ref
    direction = objective_fn.direction
    rng = derive_rng(config.seed, *seed_keys)
    n = len(data)
    batch = n if config.batch_size is None else min(config.batch_size, n)
    mask = _scope_mask(arch, config)
    lo, hi = (config.param_box if config.param_box is not None else (None, None))
    targets = target_rows(arch, data.y)

    base = reference.values.copy()
    if direction:
        ws, bs = arch.layer_slices()[-1]
        base[bs.start] += direction * config.bias_nudge  # mean-output bias
    elif objective_fn.objective == "divergence" and config.bias_nudge:
        # the divergence gradient vanishes at the exact reference; a tiny
        # seeded perturbation of the free parameters provides the first step
        base[mask] += config.bias_nudge * rng.standard_normal(int(mask.sum()))
    values = base.copy()
    opt = Adam(values.size, config.lr, config.weight_decay, eps=config.adam_eps)

    records: list[TrajectoryRecord] = []
    best_idx, best_div, best_values = -1, -np.inf, None
    nan_abort = False

    def add_record(step, c, cur, fwd) -> bool:
        """Record iterate `cur`; `fwd` is its forward pass, over all data rows or a mini-batch."""
        nonlocal best_idx, best_div, best_values
        mtl = fwd.batch_loss if len(fwd.batch_grad) == n else mean_train_loss(cur, data)
        if not np.isfinite(mtl):
            return False
        pred = head_predictions(arch, fwd.test_acts[-1])[0]
        div = _divergence(arch, ref, pred)
        full_pen = mtl - objective_fn.bound
        records.append(TrajectoryRecord(step, c, fwd.adv, fwd.batch_loss - objective_fn.bound, mtl, full_pen, div, pred))
        # a direction search keeps only iterates on its side of the reference mean
        if full_pen <= 0.0 and div > best_div and (not direction or direction * (pred[0] - ref[0]) > 0.0):
            best_idx, best_div, best_values = len(records) - 1, div, cur.values.copy()
        return True

    # Record the exact reference first; for nudged regression searches the
    # loop below starts from a distinct (nudged) model.
    if not np.array_equal(base, reference.values):
        add_record(0, config.c0, reference, objective_fn.forward(reference, data.x, targets))

    c = config.c0
    step0 = len(records)
    for m in range(1, config.steps + 1):
        if batch < n:
            idx = rng.choice(n, size=batch, replace=False)
            bx, bt = data.x[idx], targets[idx]
        else:
            bx, bt = data.x, targets
        cur = ModelParams(arch, values)
        fwd = objective_fn.forward(cur, bx, bt)
        if not (np.isfinite(fwd.adv) and np.isfinite(fwd.batch_loss)) or not add_record(step0 + m - 1, c, cur, fwd):
            nan_abort = True
            break

        g = objective_fn.backward(cur, fwd, c)
        g[~mask] = 0.0
        values = opt.step(values, g)
        values[~mask] = base[~mask]
        if lo is not None:
            values[mask] = np.clip(values[mask], lo, hi)
        if m % config.eta_every == 0:
            c *= config.eta_factor
            # each penalty stage is its own unconstrained subproblem; a stale
            # second-moment estimate from a boundary contact at the previous,
            # smaller c would throttle the steps of every later stage
            opt = Adam(values.size, config.lr, config.weight_decay, eps=config.adam_eps)

    if not nan_abort:
        # the final updated model was visited too
        cur = ModelParams(arch, values)
        fwd = objective_fn.forward(cur, data.x, targets)
        if np.isfinite(fwd.adv):
            add_record(step0 + config.steps, c, cur, fwd)
        else:
            nan_abort = True

    no_feasible = False
    if best_idx < 0 or best_div <= 0.0:
        # no feasible iterate improved on the reference: return the reference
        if not records:
            records.append(TrajectoryRecord(0, config.c0, 0.0, -gamma, l_ref, -gamma, 0.0, ref))
        best_idx = 0
        best_values = reference.values.copy()
        no_feasible = True

    return SearchTrajectory(
        target=target_tag,
        head=arch.head,
        records=records,
        best_index=best_idx,
        best_params=ModelParams(arch, best_values),
        no_feasible=no_feasible,
        nan_abort=nan_abort,
        reference_loss=l_ref,
        gamma=gamma,
    )


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


def targeted_search_suite(x, data, reference: ModelParams, config: SearchConfig, classes=None) -> list[SearchTrajectory]:
    """One targeted search per class (or per entry of `classes`).

    Each trajectory's random stream is keyed by the class identity, so the
    result set does not depend on the order classes are visited.
    """
    if reference.arch.head != "categorical":
        raise ValueError("targeted searches need a categorical head")
    if classes is None:
        classes = range(reference.arch.n_classes)
    return [adversarial_model_search(x, data, reference, config, objective=("class", int(c)), seed_keys=(int(c),)) for c in classes]


def regression_search_pair(x, data, reference: ModelParams, config: SearchConfig) -> tuple[SearchTrajectory, SearchTrajectory]:
    """Upward and downward searches around a regression reference."""
    if reference.arch.head != "gaussian_scalar":
        raise ValueError("regression searches need a gaussian head")
    up = adversarial_model_search(x, data, reference, config, objective=("direction", +1), seed_keys=(0,))
    down = adversarial_model_search(x, data, reference, config, objective=("direction", -1), seed_keys=(1,))
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
