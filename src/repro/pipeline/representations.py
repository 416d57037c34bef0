"""Unified representation-method framework for the experiment pipeline.

Each paper baseline is wrapped behind one interface so the
classification and ranking runners can iterate over methods uniformly:

    method = IFairMethod(params, init="protected_zero")
    method.fit(context)          # context carries train data + labels
    Z = method.transform(X)      # any split, same feature layout

Methods with hyper-parameters expose a ``candidates(config)``
classmethod returning the grid the paper searches.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.identity import mask_columns
from repro.baselines.kmeans import KMeansRepresentation
from repro.baselines.lfr import LFR
from repro.baselines.svd import SVDTransform
from repro.core.model import IFair
from repro.exceptions import ValidationError
from repro.pipeline.config import ExperimentConfig


@dataclass
class FitContext:
    """Everything a representation may need at fit time.

    ``y_train`` and ``protected_group_train`` are only consumed by LFR
    (the coupling to labels and a pre-specified group that iFair
    removes); application-agnostic methods ignore them.
    """

    X_train: np.ndarray
    protected_indices: np.ndarray
    y_train: Optional[np.ndarray] = None
    protected_group_train: Optional[np.ndarray] = None
    random_state: int = 0


class RepresentationMethod(abc.ABC):
    """One representation baseline with a uniform fit/transform API."""

    name: str = "abstract"

    def __init__(self, params: Optional[Dict] = None):
        self.params: Dict = dict(params or {})

    @abc.abstractmethod
    def fit(self, context: FitContext) -> "RepresentationMethod":
        """Learn the representation from training data."""

    @abc.abstractmethod
    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map records into the learned representation."""

    @classmethod
    def candidates(cls, config: ExperimentConfig) -> List[Dict]:
        """Hyper-parameter grid; parameter-free methods return [{}]."""
        return [{}]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.params})"


class FullDataMethod(RepresentationMethod):
    """The original data, unchanged."""

    name = "Full Data"

    def fit(self, context: FitContext) -> "FullDataMethod":
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64).copy()


class MaskedDataMethod(RepresentationMethod):
    """Original data with protected columns zeroed."""

    name = "Masked Data"

    def fit(self, context: FitContext) -> "MaskedDataMethod":
        self._protected = context.protected_indices
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return mask_columns(X, self._protected)


class SVDMethod(RepresentationMethod):
    """Truncated-SVD reconstruction of the full data."""

    name = "SVD"
    masked = False

    def fit(self, context: FitContext) -> "SVDMethod":
        rank = int(self.params.get("rank", 10))
        self._protected = context.protected_indices
        X = context.X_train
        if self.masked:
            X = mask_columns(X, self._protected)
        self._svd = SVDTransform(rank=rank, random_state=context.random_state)
        self._svd.fit(X)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.masked:
            X = mask_columns(X, self._protected)
        return self._svd.transform(X)

    @classmethod
    def candidates(cls, config: ExperimentConfig) -> List[Dict]:
        return [{"rank": int(k)} for k in config.prototype_grid]


class SVDMaskedMethod(SVDMethod):
    """Truncated-SVD reconstruction of the masked data."""

    name = "SVD-masked"
    masked = True


class KMeansMethod(RepresentationMethod):
    """Masked-data hard clustering — the intro's dismissed straw man.

    Not part of the paper's method line-up; available as an extension
    baseline ("KMeans-masked") for ablations.
    """

    name = "KMeans-masked"

    def fit(self, context: FitContext) -> "KMeansMethod":
        self._model = KMeansRepresentation(
            n_clusters=int(self.params.get("n_clusters", 10)),
            random_state=context.random_state,
        )
        self._model.fit(context.X_train, context.protected_indices)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return self._model.transform(X)

    @classmethod
    def candidates(cls, config: ExperimentConfig) -> List[Dict]:
        return [{"n_clusters": int(k)} for k in config.prototype_grid]


class LFRMethod(RepresentationMethod):
    """Zemel et al. LFR; needs labels and a protected-group vector."""

    name = "LFR"

    def fit(self, context: FitContext) -> "LFRMethod":
        if context.y_train is None or context.protected_group_train is None:
            raise ValidationError(
                "LFR requires labels and a protected-group indicator at fit time"
            )
        self._model = LFR(
            n_prototypes=int(self.params.get("n_prototypes", 10)),
            a_x=float(self.params.get("a_x", 0.01)),
            a_y=float(self.params.get("a_y", 1.0)),
            a_z=float(self.params.get("a_z", 0.5)),
            n_restarts=int(self.params.get("n_restarts", 1)),
            max_iter=int(self.params.get("max_iter", 100)),
            random_state=context.random_state,
        )
        self._model.fit(context.X_train, context.y_train, context.protected_group_train)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return self._model.transform(X)

    @classmethod
    def candidates(cls, config: ExperimentConfig) -> List[Dict]:
        # The paper grid-searches the mixture coefficients; A_y is the
        # reference objective and stays at 1.
        grid = []
        for a_x, a_z, k in itertools.product(
            config.mixture_grid, config.mixture_grid, config.prototype_grid
        ):
            grid.append(
                {
                    "a_x": float(a_x),
                    "a_y": 1.0,
                    "a_z": float(a_z),
                    "n_prototypes": int(k),
                    "n_restarts": config.n_restarts,
                    "max_iter": config.max_iter,
                }
            )
        return grid


class IFairMethod(RepresentationMethod):
    """The paper's model; ``init`` picks the iFair-a / iFair-b variant."""

    name = "iFair"

    def __init__(self, params: Optional[Dict] = None, init: str = "protected_zero"):
        super().__init__(params)
        self.init = init
        self.name = "iFair-b" if init == "protected_zero" else "iFair-a"

    def fit(self, context: FitContext) -> "IFairMethod":
        self._model = IFair(
            n_prototypes=int(self.params.get("n_prototypes", 10)),
            lambda_util=float(self.params.get("lambda_util", 1.0)),
            mu_fair=float(self.params.get("mu_fair", 1.0)),
            init=self.init,
            n_restarts=int(self.params.get("n_restarts", 1)),
            max_iter=int(self.params.get("max_iter", 100)),
            max_pairs=self.params.get("max_pairs"),
            pair_mode=str(self.params.get("pair_mode", "auto")),
            n_landmarks=self.params.get("n_landmarks"),
            landmark_method=str(self.params.get("landmark_method", "kmeans++")),
            oracle_jobs=self.params.get("oracle_jobs"),
            oracle_shards=self.params.get("oracle_shards"),
            batch_mode=str(self.params.get("batch_mode", "full")),
            batch_size=self.params.get("batch_size"),
            n_jobs=self.params.get("n_jobs"),
            warm_start_theta=self.params.get("warm_start_theta"),
            random_state=context.random_state,
        )
        self._model.fit(context.X_train, context.protected_indices)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return self._model.transform(X)

    @property
    def theta_(self) -> np.ndarray:
        """Fitted packed parameters — halving warm-starts from it."""
        return self._model.theta_

    @classmethod
    def candidates(cls, config: ExperimentConfig) -> List[Dict]:
        grid = []
        for lam, mu, k in itertools.product(
            config.mixture_grid, config.mixture_grid, config.prototype_grid
        ):
            if lam == 0.0 and mu == 0.0:
                continue
            point = {
                "lambda_util": float(lam),
                "mu_fair": float(mu),
                "n_prototypes": int(k),
                "n_restarts": config.n_restarts,
                "max_iter": config.max_iter,
                "max_pairs": config.max_pairs,
            }
            if config.pair_mode == "landmark":
                # The landmark oracle replaces pair subsampling.
                point["max_pairs"] = None
                point["pair_mode"] = "landmark"
                point["n_landmarks"] = config.n_landmarks
                point["landmark_method"] = config.landmark_method
                point["oracle_jobs"] = config.oracle_jobs
                point["oracle_shards"] = config.oracle_shards
                point["batch_mode"] = config.batch_mode
                point["batch_size"] = config.batch_size
            elif config.pair_mode != "auto":
                point["pair_mode"] = config.pair_mode
                if config.pair_mode == "full":
                    point["max_pairs"] = None
            grid.append(point)
        return grid


def make_method(name: str, params: Optional[Dict] = None) -> RepresentationMethod:
    """Factory mapping a paper method name to its implementation."""
    registry = {
        "Full Data": lambda p: FullDataMethod(p),
        "Masked Data": lambda p: MaskedDataMethod(p),
        "SVD": lambda p: SVDMethod(p),
        "SVD-masked": lambda p: SVDMaskedMethod(p),
        "KMeans-masked": lambda p: KMeansMethod(p),
        "LFR": lambda p: LFRMethod(p),
        "iFair-a": lambda p: IFairMethod(p, init="random"),
        "iFair-b": lambda p: IFairMethod(p, init="protected_zero"),
    }
    if name not in registry:
        raise ValidationError(
            f"unknown method {name!r}; choose from {sorted(registry)}"
        )
    return registry[name](params)


CLASSIFICATION_METHODS = (
    "Full Data",
    "Masked Data",
    "SVD",
    "SVD-masked",
    "LFR",
    "iFair-a",
    "iFair-b",
)

RANKING_METHODS = (
    "Full Data",
    "Masked Data",
    "SVD",
    "SVD-masked",
    "iFair-b",
)


def method_candidates(name: str, config: ExperimentConfig) -> List[Dict]:
    """Grid of hyper-parameter dicts for one method name."""
    classes = {
        "Full Data": FullDataMethod,
        "Masked Data": MaskedDataMethod,
        "SVD": SVDMethod,
        "SVD-masked": SVDMaskedMethod,
        "KMeans-masked": KMeansMethod,
        "LFR": LFRMethod,
        "iFair-a": IFairMethod,
        "iFair-b": IFairMethod,
    }
    if name not in classes:
        raise ValidationError(f"unknown method {name!r}")
    return classes[name].candidates(config)
