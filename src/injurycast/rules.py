"""Turn a fitted decision tree into an interpretable handbook of injury rules."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingColumn
from .tree import DecisionTreeModel


@dataclass
class RuleCondition:
    feature: str
    lo: float  # exclusive lower bound (-inf when unbounded)
    hi: float  # inclusive upper bound (+inf when unbounded)

    def to_dict(self) -> dict:
        return {"feature": self.feature,
                "lo": None if math.isinf(self.lo) else self.lo,
                "hi": None if math.isinf(self.hi) else self.hi}


@dataclass
class InjuryRule:
    conditions: list  # list[RuleCondition], one interval per feature
    leaf_id: int
    frequency: float | None = None  # fraction of all injury examples covered
    accuracy: float | None = None  # fraction of covered examples that are injuries

    def matches_matrix(self, X: np.ndarray, feature_names: list) -> np.ndarray:
        mask = np.ones(len(X), dtype=bool)
        for c in self.conditions:
            if c.feature not in feature_names:
                raise MissingColumn(f"table has no column '{c.feature}' that a rule tests")
            col = X[:, feature_names.index(c.feature)]
            mask &= (col > c.lo) & (col <= c.hi)
        return mask

    def to_dict(self) -> dict:
        return {"conditions": [c.to_dict() for c in self.conditions],
                "leaf_id": self.leaf_id,
                "frequency": self.frequency,
                "accuracy": self.accuracy}

    @classmethod
    def from_dict(cls, data: dict) -> "InjuryRule":
        conds = [RuleCondition(c["feature"],
                               -math.inf if c["lo"] is None else c["lo"],
                               math.inf if c["hi"] is None else c["hi"])
                 for c in data["conditions"]]
        return cls(conds, data["leaf_id"], data.get("frequency"), data.get("accuracy"))


def extract_rules(model: DecisionTreeModel) -> list:
    """One rule per injury-class leaf; repeated features along the path collapse
    to a single interval (lo, hi]. Empty list when the tree has no injury leaf."""
    rules = []
    # explicit stack, right child pushed first: leaves come out in preorder and a
    # tree thousands of levels deep needs no recursion
    stack = [(0, {})]
    while stack:
        node, bounds = stack.pop()
        if model.feature[node] < 0:
            c0, c1 = model.counts[node]
            if c1 > c0:  # leaf predicts injury; count ties predict class 0
                conds = [RuleCondition(f, lo, hi)
                         for f, (lo, hi) in sorted(bounds.items(),
                                                   key=lambda kv: model.feature_names.index(kv[0]))]
                rules.append(InjuryRule(conds, leaf_id=int(node)))
            continue
        name = model.feature_names[model.feature[node]]
        thr = float(model.threshold[node])
        lo, hi = bounds.get(name, (-math.inf, math.inf))
        stack.append((model.right[node], {**bounds, name: (max(lo, thr), hi)}))
        stack.append((model.left[node], {**bounds, name: (lo, min(hi, thr))}))
    return rules


def rule_stats(rules: list, table) -> list:
    """Fill frequency (covered injuries / total injuries) and accuracy
    (covered injuries / covered examples) from a labeled table."""
    total_injuries = int(table.y.sum())
    for rule in rules:
        mask = rule.matches_matrix(table.X, table.feature_names)
        covered = int(mask.sum())
        covered_inj = int(table.y[mask].sum())
        rule.frequency = covered_inj / total_injuries if total_injuries else 0.0
        rule.accuracy = covered_inj / covered if covered else None
    return rules


def render_handbook(rules: list, fmt: str = "text") -> str:
    """Deterministic handbook: rules ordered by descending frequency, then leaf id."""
    ordered = sorted(rules, key=lambda r: (-(r.frequency or 0.0), r.leaf_id))
    if fmt == "json":
        return json.dumps({"rules": [r.to_dict() for r in ordered]}, indent=2)
    if not ordered:
        return "No injury rules: the tree contains no injury-class leaf.\n"
    lines = ["Injury rule handbook", "====================", ""]
    for i, rule in enumerate(ordered, start=1):
        parts = []
        for c in rule.conditions:
            if math.isinf(c.lo):
                parts.append(f"{c.feature} <= {c.hi:.2f}")
            elif math.isinf(c.hi):
                parts.append(f"{c.feature} > {c.lo:.2f}")
            else:
                parts.append(f"{c.lo:.2f} < {c.feature} <= {c.hi:.2f}")
        freq = f"{rule.frequency:.0%}" if rule.frequency is not None else "n/a"
        acc = (f"{rule.accuracy:.0%}" if rule.accuracy is not None else "n/a")
        lines.append(f"Rule {i}: IF " + " AND ".join(parts) + " THEN injury")
        lines.append(f"  frequency: {freq}   accuracy: {acc}")
        lines.append("")
    return "\n".join(lines)


def load_handbook(text: str) -> list:
    return [InjuryRule.from_dict(d) for d in json.loads(text)["rules"]]
