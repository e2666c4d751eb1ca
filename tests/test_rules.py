import json
import math

import numpy as np
import pytest

from injurycast.errors import MissingColumn
from injurycast.rules import (
    InjuryRule,
    RuleCondition,
    extract_rules,
    load_handbook,
    render_handbook,
    rule_stats,
)
from injurycast.tree import DecisionTreeModel, TreeHyperParams, fit_tree

from conftest import planted_table


def hand_tree():
    """x0 <= 2: leaf(5,0); x0 > 2 and x1 <= 1: leaf(0,3); else leaf(1,4)."""
    return DecisionTreeModel.from_dict({
        "feature_names": ["x0", "x1"],
        "hyperparams": {"max_depth": 2, "min_samples_leaf": 1,
                        "min_samples_split": 2},
        "nodes": {
            "feature": [0, -1, 1, -1, -1],
            "threshold": [2.0, 0.0, 1.0, 0.0, 0.0],
            "left": [1, -1, 3, -1, -1],
            "right": [2, -1, 4, -1, -1],
            "counts": [[6, 7], [5, 0], [1, 7], [0, 3], [1, 4]],
        },
        "raw_importance": None,
    })


class TestExtractRules:
    def test_hand_tree_intervals(self):
        rules = extract_rules(hand_tree())
        assert len(rules) == 2
        by_leaf = {r.leaf_id: r for r in rules}
        r3 = by_leaf[3]
        assert [(c.feature, c.lo, c.hi) for c in r3.conditions] == [
            ("x0", 2.0, math.inf), ("x1", -math.inf, 1.0)]
        r4 = by_leaf[4]
        assert [(c.feature, c.lo, c.hi) for c in r4.conditions] == [
            ("x0", 2.0, math.inf), ("x1", 1.0, math.inf)]

    def test_repeated_feature_collapses_to_interval(self):
        # x0 in (1, 3] reached by splitting on x0 twice
        model = DecisionTreeModel.from_dict({
            "feature_names": ["x0"],
            "hyperparams": {"max_depth": 2, "min_samples_leaf": 1,
                            "min_samples_split": 2},
            "nodes": {
                "feature": [0, -1, 0, -1, -1],
                "threshold": [1.0, 0.0, 3.0, 0.0, 0.0],
                "left": [1, -1, 3, -1, -1],
                "right": [2, -1, 4, -1, -1],
                "counts": [[5, 5], [4, 0], [1, 5], [0, 5], [1, 0]],
            },
            "raw_importance": None,
        })
        rules = extract_rules(model)
        assert len(rules) == 1
        (cond,) = rules[0].conditions
        assert (cond.feature, cond.lo, cond.hi) == ("x0", 1.0, 3.0)

    def test_no_injury_leaf_gives_empty_handbook(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        model = fit_tree(X, np.zeros(20, dtype=int))
        assert extract_rules(model) == []
        assert "No injury rules" in render_handbook([])

    def test_tie_leaves_are_not_injury_rules(self):
        model = fit_tree(np.zeros((4, 1)), np.array([0, 0, 1, 1]))
        assert extract_rules(model) == []  # tie predicts class 0

    def test_prediction_rule_equivalence(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(20, 60))
            X = rng.uniform(size=(n, 3))
            y = rng.integers(0, 2, size=n)
            model = fit_tree(X, y, hp=TreeHyperParams(max_depth=4), seed=trial)
            rules = extract_rules(model)
            grid = rng.uniform(-0.2, 1.2, size=(500, 3))
            pred, _ = model.predict(grid)
            covered = np.zeros(len(grid), dtype=bool)
            for rule in rules:
                covered |= rule.matches_matrix(grid, model.feature_names)
            np.testing.assert_array_equal(pred.astype(bool), covered)

    def test_deep_chain_needs_no_recursion(self):
        # alternating labels on one feature give a 3,000-level tree of 5,999
        # nodes, which overflowed the recursive walk
        X = np.arange(3000, dtype=float)[:, None]
        y = np.arange(3000) % 2
        model = fit_tree(X, y)
        rules = extract_rules(model)
        assert len(rules) == 1500
        ids = [r.leaf_id for r in rules]
        assert ids == sorted(ids)  # node ids are preorder, so rules are too
        covered = np.zeros(len(X), dtype=bool)
        for rule in rules:
            covered |= rule.matches_matrix(X, model.feature_names)
        np.testing.assert_array_equal(covered, y == 1)

    def test_table_without_a_rule_feature(self):
        (rule, _) = extract_rules(hand_tree())
        with pytest.raises(MissingColumn, match="'x0'"):
            rule.matches_matrix(np.zeros((3, 2)), ["a", "x1"])

    def test_boundary_semantics_match_tree_routing(self):
        model = hand_tree()
        rules = extract_rules(model)
        # exactly on a threshold routes left: x0 = 2 is no-injury, x1 = 1 is the
        # (0, 3) leaf; just above x0 = 2 is an injury leaf
        pts = np.array([[2.0, 0.0], [3.0, 1.0], [np.nextafter(2.0, 3.0), 5.0]])
        pred, _ = model.predict(pts)
        np.testing.assert_array_equal(pred, [0, 1, 1])
        masks = [r.matches_matrix(pts, model.feature_names) for r in rules]
        np.testing.assert_array_equal(np.any(masks, axis=0), pred == 1)
        np.testing.assert_array_equal(masks[0], [False, True, False])  # leaf 3: x1 <= 1


class TestRuleStats:
    def test_frequencies_sum_to_one_on_pure_trees(self):
        t = planted_table(n=200, seed=0)
        model = fit_tree(t)  # unlimited depth: every injury routes to an injury leaf
        rules = rule_stats(extract_rules(model), t)
        assert sum(r.frequency for r in rules) == pytest.approx(1.0)
        assert all(r.accuracy == 1.0 for r in rules)

    def test_accuracy_none_when_uncovered(self):
        rule = InjuryRule([RuleCondition("f0", 100.0, math.inf)], leaf_id=0)
        from conftest import rand_table
        t = rand_table(n=30, p=1, n_pos=5, seed=0)
        (out,) = rule_stats([rule], t)
        assert out.frequency == 0.0 and out.accuracy is None


class TestRendering:
    def test_json_round_trip(self):
        t = planted_table(n=200, seed=1)
        rules = rule_stats(extract_rules(fit_tree(t)), t)
        back = load_handbook(render_handbook(rules, fmt="json"))
        assert [r.to_dict() for r in back] == sorted(
            (r.to_dict() for r in rules),
            key=lambda d: (-(d["frequency"] or 0.0), d["leaf_id"]))

    def test_text_is_ordered_by_frequency(self):
        rules = [
            InjuryRule([RuleCondition("a", 1.0, math.inf)], leaf_id=9,
                       frequency=0.2, accuracy=0.5),
            InjuryRule([RuleCondition("b", -math.inf, 2.0)], leaf_id=3,
                       frequency=0.8, accuracy=0.9),
        ]
        text = render_handbook(rules)
        assert text.index("b <= 2.00") < text.index("a > 1.00")
        assert "frequency: 80%" in text

    def test_text_determinism(self):
        t = planted_table(n=200, seed=2)
        rules = rule_stats(extract_rules(fit_tree(t)), t)
        assert render_handbook(rules) == render_handbook(list(reversed(rules)))
        parsed = json.loads(render_handbook(rules, fmt="json"))
        assert "rules" in parsed
