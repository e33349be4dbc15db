"""The co-located-VM virtualization-overhead model (paper Eq. (3)).

With ``N`` guests on a PM the paper models::

    M_hat = a (sum_k M_k)  +  alpha(N) * o (sum_k M_k)         (Eq. 3)

``a`` plays the single-VM role, ``o`` captures the synthesized effect
of colocation, and ``alpha(N)`` is "a linear function of N" with
``alpha(1)=0`` and ``alpha(2)=1`` -- i.e. ``alpha(N) = N - 1``.

Because Eq. (3) is linear in the stacked coefficient vector
``[a | o]``, fitting reduces to one regression per target over the
8 + 2 = 10 feature columns ``[1, sumM, alpha, alpha*sumM]``, pooled over
runs with different N.  That pooling is what lets the model interpolate
to VM counts never measured (the paper applies the 1/2-VM-trained model
to 3 VMs per PM in Figure 9).
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

from repro.models.regression import LinearModel, fit
from repro.models.samples import (
    TARGETS,
    TrainingSample,
    design_matrix,
    target_vector,
    vm_counts,
)
from repro.monitor.metrics import ResourceVector
from repro.models.single_vm import PredictedUtilization


def alpha_linear(n: float) -> float:
    """The paper's colocation coefficient: alpha(1)=0, alpha(2)=1."""
    return float(n) - 1.0


def alpha_constant(n: float) -> float:
    """Ablation variant: colocation overhead independent of N (N>1)."""
    return 1.0 if n > 1 else 0.0


class MultiVMOverheadModel:
    """Eq. (3): base coefficients ``a`` plus colocation coefficients ``o``."""

    def __init__(
        self,
        models: Dict[str, LinearModel],
        *,
        alpha: Callable[[float], float] = alpha_linear,
    ) -> None:
        missing = set(TARGETS) - set(models)
        if missing:
            raise ValueError(f"missing per-target models: {sorted(missing)}")
        self._models = dict(models)
        self._alpha = alpha

    @classmethod
    def fit(
        cls,
        samples: Sequence[TrainingSample],
        *,
        method: str = "ols",
        alpha: Callable[[float], float] = alpha_linear,
        **kwargs,
    ) -> "MultiVMOverheadModel":
        """Fit from pooled samples spanning at least two VM counts.

        A single VM count would leave the ``a`` / ``o`` split
        unidentifiable, so it is rejected.
        """
        if not samples:
            raise ValueError("no training samples")
        counts = {s.n_vms for s in samples}
        if len(counts) < 2:
            raise ValueError(
                "multi-VM fit needs samples from >= 2 distinct VM counts; "
                f"got N={sorted(counts)}"
            )
        X = cls._features(design_matrix(samples), vm_counts(samples), alpha)
        models = {
            t: fit(X, target_vector(samples, t), method=method, **kwargs)
            for t in TARGETS
        }
        return cls(models, alpha=alpha)

    @staticmethod
    def _features(
        sum_m: np.ndarray, counts: np.ndarray, alpha: Callable[[float], float]
    ) -> np.ndarray:
        a = np.array([alpha(n) for n in counts])[:, None]
        # [sumM | alpha | alpha * sumM]; the regression adds the global
        # intercept, completing a's constant term.
        return np.hstack([sum_m, a, a * sum_m])

    # -- coefficient access ------------------------------------------------

    def base_coefficients(self, target: str) -> np.ndarray:
        """The paper's ``a`` row for one target: ``[a_o, a_c, a_m, a_i, a_n]``."""
        m = self._model(target)
        return np.concatenate(([m.intercept], m.coef[:4]))

    def colocation_coefficients(self, target: str) -> np.ndarray:
        """The paper's ``o`` row: ``[o_const, o_c, o_m, o_i, o_n]``."""
        m = self._model(target)
        return np.concatenate(([m.coef[4]], m.coef[5:9]))

    def _model(self, target: str) -> LinearModel:
        try:
            return self._models[target]
        except KeyError:
            raise ValueError(f"unknown target {target!r}") from None

    # -- prediction -------------------------------------------------------

    def predict(
        self, vm_utils: Sequence[ResourceVector]
    ) -> PredictedUtilization:
        """Predict PM utilization for ``len(vm_utils)`` co-located guests."""
        if not vm_utils:
            raise ValueError("need at least one VM utilization vector")
        total = vm_utils[0]
        for v in vm_utils[1:]:
            total = total + v
        n = len(vm_utils)
        x = self._features(
            total.as_array()[None, :], np.array([float(n)]), self._alpha
        )[0]
        dom0 = float(self._models["dom0.cpu"].predict(x))
        hyp = float(self._models["hyp.cpu"].predict(x))
        return PredictedUtilization(
            dom0_cpu=dom0,
            hyp_cpu=hyp,
            pm_cpu=dom0 + hyp + total.cpu,
            pm_mem=float(self._models["pm.mem"].predict(x)),
            pm_io=float(self._models["pm.io"].predict(x)),
            pm_bw=float(self._models["pm.bw"].predict(x)),
        )

    def predict_samples(
        self, samples: Sequence[TrainingSample]
    ) -> Dict[str, np.ndarray]:
        """Vectorized prediction over training-style samples."""
        if not samples:
            raise ValueError("no samples")
        X = self._features(
            design_matrix(samples), vm_counts(samples), self._alpha
        )
        out = {t: np.asarray(self._models[t].predict(X)) for t in TARGETS}
        guest_cpu = np.array([s.vm_sum.cpu for s in samples])
        out["pm.cpu"] = out["dom0.cpu"] + out["hyp.cpu"] + guest_cpu
        return out
