"""Correctness checks on every report a benchmark job writes.

Each check compares a report against quantities this module computes itself
with numpy from the reference joint's ``log_mass`` table (as ``synth-gen``
writes it), or against properties the method must have: exact conditionals
are circulation-free, the two consistency verdicts agree, enumeration counts
have closed forms, KLs are non-negative, and Monte Carlo estimates sit within
a few standard errors of the exact values. Nothing is compared with a stored
copy of an earlier run's output.

A check returns a list of failure messages; an empty list means the report
passed.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

NOISE = 1e-10  # what "floating-point noise" means for a value of a few nats
MATCH = 1e-9  # agreement between the report and the independent computation
Z = 6.0  # standard errors a Monte Carlo estimate may miss its exact value by
SQRT_LN2 = math.sqrt(math.log(2.0))
# commands whose checks compare against the reference joint's log-mass table
TABLE_COMMANDS = {"tc", "order-error", "stress"}


def load_log_mass(path) -> np.ndarray:
    """The model file's normalised log-mass table as a (V,)*m array."""
    data = json.loads(Path(path).read_text())
    return np.asarray(data["log_mass"], dtype=np.float64).reshape((data["vocab_size"],) * data["positions"])


def block_probs(log_mass: np.ndarray, context: dict) -> np.ndarray:
    """p(x_block | observed), one axis per block position in block order."""
    observed = {int(p): int(t) for p, t in context.get("observed", {}).items()}
    block = [int(p) for p in context["block"]]
    probs = np.exp(log_mass)
    index = tuple(observed.get(p, slice(None)) for p in range(log_mass.ndim))
    sub = probs[index]
    free = [p for p in range(log_mass.ndim) if p not in observed]
    drop = tuple(k for k, p in enumerate(free) if p not in block)
    if drop:
        sub = sub.sum(axis=drop)
    kept = [p for p in free if p in block]
    sub = np.transpose(sub, [kept.index(p) for p in block])
    return sub / sub.sum()


def entropy(probs: np.ndarray) -> float:
    p = probs.reshape(-1)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def marginal(probs: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    drop = tuple(k for k in range(probs.ndim) if k not in axes)
    return probs.sum(axis=drop) if drop else probs


def squares_count(n: int, vocab: int) -> int:
    """Squares an exhaustive consistency scan visits on a block of n positions."""
    return sum(math.comb(n, s) * vocab**s * math.comb(n - s, 2) * vocab**2 for s in range(n - 1))


def pair_keys(block) -> set[str]:
    return {f"{i}-{j}" for i, j in itertools.combinations(sorted(block), 2)}


def cell_entropies(log_mass: np.ndarray, position: int, pattern: tuple[int, ...]) -> np.ndarray:
    """Entropy of p(x_position | x_pattern) for every value of the pattern."""
    axes = tuple(sorted((*pattern, position)))
    joint = marginal(np.exp(log_mass), axes)
    joint = np.moveaxis(joint, axes.index(position), -1).reshape(-1, log_mass.shape[0])
    cond = joint / joint.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(cond > 0, cond * np.log(cond), 0.0).sum(axis=1)


def covered_patterns(coverage: str, position: int, positions: int) -> list[tuple[int, ...]]:
    """Visible patterns a trainer's coverage supervises at one position.

    For ``fraction`` coverage the subset is the trainer's own seeded choice, so
    every pattern is returned and the caller bounds the loss by the minimum.
    """
    if coverage == "prefix-only":
        return [tuple(range(position))]
    others = [p for p in range(positions) if p != position]
    return [c for size in range(len(others) + 1) for c in itertools.combinations(others, size)]


class Checker:
    """Checks reports of one workload against reference tables keyed by recipe."""

    def __init__(self, references: dict[str, np.ndarray]):
        self.references = references

    def check(self, job, report: dict, written: list[str]) -> list[str]:
        errors = []
        if report.get("command") != job.command:
            errors.append(f"report command {report.get('command')!r}, expected {job.command!r}")
        if not isinstance(report.get("model_id"), str):
            errors.append("report has no model id")
        missing = [p for p in written if not Path(p).is_file()]
        if missing:
            errors.append(f"listed artifacts missing: {missing}")
        method = getattr(self, "_" + job.command.replace("-", "_"))
        try:
            errors.extend(method(job, report["sections"]))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            errors.append(f"malformed {job.command} report: {exc!r}")
        return [f"{job.name}: {e}" for e in errors]

    def _table(self, job) -> np.ndarray:
        return self.references[job.recipe.key]

    def _consistency(self, job, sections) -> list[str]:
        errors = []
        vocab = job.recipe.vocab
        for entry in sections["consistency"]:
            rep = entry["report"]
            n = len(job.contexts[entry["context_id"]]["block"])
            if rep["permutations_checked"] != math.factorial(n):
                errors.append(f"permutations_checked {rep['permutations_checked']} != {n}!")
            if rep["squares_checked"] != squares_count(n, vocab):
                errors.append(f"squares_checked {rep['squares_checked']} != {squares_count(n, vocab)}")
            if rep["order_gap_consistent"] != rep["curl_consistent"]:
                errors.append("the permutation and circulation verdicts disagree")
            if rep["consistent"] != (rep["order_gap_consistent"] and rep["curl_consistent"]):
                errors.append("overall verdict is not the conjunction of the two verdicts")
            if (rep["witness"] is None) != rep["curl_consistent"]:
                errors.append("witness present iff the circulation verdict fails")
            if job.exact and not (rep["consistent"] and rep["max_curl"] < NOISE and rep["max_order_gap"] < NOISE):
                errors.append(f"exact conditionals reported inconsistent (max curl {rep['max_curl']})")
        return errors

    def _curl_scan(self, job, sections) -> list[str]:
        errors = []
        vocab = job.recipe.vocab
        for entry in sections["curl_scan"]:
            rep = entry["report"]
            block = job.contexts[entry["context_id"]]["block"]
            values = np.array([s["value"] for s in rep["samples"]])
            normalized = np.array([s["normalized_value"] for s in rep["samples"]])
            stats = rep["stats"]
            expected_n = math.comb(len(block), 2) * vocab**2
            if rep["n"] != expected_n or len(values) != expected_n:
                errors.append(f"{len(values)} squares scanned, expected {expected_n}")
            mean_abs = float(np.abs(values).mean())
            if abs(stats["ecirc_abs"] - mean_abs) > MATCH * max(1.0, mean_abs):
                errors.append(f"ecirc_abs {stats['ecirc_abs']} != mean |sample| {mean_abs}")
            if stats["max_curl"] != float(np.abs(values).max()):
                errors.append("max_curl is not the largest |sample|")
            if np.any(normalized < 0) or np.any(normalized > 1):
                errors.append("normalised circulation outside [0, 1]")
            kls = stats["order_swap_kl"]
            if set(kls) != pair_keys(block):
                errors.append(f"order_swap_kl pairs {sorted(kls)} do not cover the block")
            if any(v < -NOISE for v in kls.values()):
                errors.append(f"negative order-swap KL {min(kls.values())}")
            if job.exact and (stats["ecirc_abs"] > NOISE or max(abs(v) for v in kls.values()) > NOISE):
                errors.append(f"exact conditionals: ecirc_abs {stats['ecirc_abs']}, max KL {max(kls.values())}")
        return errors

    def _order_gap(self, job, sections) -> list[str]:
        errors = []
        entries = sections["order_gap"]
        expected = sum(math.comb(len(c["block"]), 2) for c in job.contexts)
        if len(entries) != expected:
            errors.append(f"{len(entries)} pairs reported, expected {expected}")
        n_expected = job.config["monte_carlo"]["n"]
        for e in entries:
            for kl in (e["kl_ij"], e["kl_ji"]):
                if kl < -NOISE or (job.exact and kl > NOISE):
                    errors.append(f"pair {e['i']}-{e['j']}: KL {kl} out of range")
            if e["mc_n"] != n_expected:
                errors.append(f"pair {e['i']}-{e['j']}: {e['mc_n']} Monte Carlo samples, expected {n_expected}")
            if abs(e["mc_value"] - e["kl_ij"]) > Z * e["mc_stderr"] + NOISE:
                errors.append(
                    f"pair {e['i']}-{e['j']}: Monte Carlo {e['mc_value']} +- {e['mc_stderr']} misses exact {e['kl_ij']}"
                )
        return errors

    def _tc(self, job, sections) -> list[str]:
        errors = []
        table = self._table(job)
        for entry in sections["dependence"]:
            rep = entry["report"]
            context = job.contexts[entry["context_id"]]
            probs = block_probs(table, context)
            h_joint = entropy(probs)
            h_marg = [entropy(marginal(probs, (k,))) for k in range(probs.ndim)]
            tc = sum(h_marg) - h_joint
            pairs = {"tc": (rep["tc"], tc), "joint_entropy": (rep["joint_entropy"], h_joint)}
            pairs["sum_marginal_entropies"] = (rep["sum_marginal_entropies"], sum(h_marg))
            block = context["block"]
            for (a, i), (b, j) in itertools.combinations(enumerate(block), 2):
                key = f"{min(i, j)}-{max(i, j)}"
                mi = h_marg[a] + h_marg[b] - entropy(marginal(probs, (a, b)))
                pairs[f"cmi {key}"] = (rep["pairwise_cmi"].get(key, math.nan), mi)
            if job.exact:
                pairs["independent_parallel_kl"] = (rep["independent_parallel_kl"], tc)
            elif rep["independent_parallel_kl"] < -NOISE:
                errors.append(f"negative independent-parallel KL {rep['independent_parallel_kl']}")
            for name, (theirs, mine) in pairs.items():
                if not abs(theirs - mine) <= MATCH:
                    errors.append(f"context {entry['context_id']}: {name} {theirs} != {mine}")
            if len(rep["pairwise_cmi"]) != math.comb(len(block), 2):
                errors.append("pairwise_cmi does not cover every block pair")
        return errors

    def _order_error(self, job, sections) -> list[str]:
        errors = []
        table = self._table(job)
        for entry in sections["order_error"]:
            context = job.contexts[entry["context_id"]]
            block = context["block"]
            h = entropy(block_probs(table, context))
            profiles = entry["profiles"]
            orders = sorted(tuple(p["order"]) for p in profiles)
            if orders != sorted(itertools.permutations(block)):
                errors.append(f"context {entry['context_id']}: ranked orders are not the {math.factorial(len(block))} permutations")
            kls = [p["kl_total"] for p in profiles]
            if any(b < a - 1e-12 for a, b in zip(kls, kls[1:])):
                errors.append(f"context {entry['context_id']}: profiles not sorted by kl_total")
            for p in profiles:
                if abs(p["conditional_entropy"] - h) > MATCH:
                    errors.append(f"order {p['order']}: conditional entropy {p['conditional_entropy']} != {h}")
                if abs(p["cross_entropy"] - p["conditional_entropy"] - p["kl_total"]) > MATCH:
                    errors.append(f"order {p['order']}: cross entropy != entropy + KL")
                if abs(sum(p["per_step_kl"]) - p["kl_total"]) > MATCH:
                    errors.append(f"order {p['order']}: per-step KLs do not sum to kl_total")
                if p["kl_total"] < -NOISE or (job.exact and p["kl_total"] > NOISE):
                    errors.append(f"order {p['order']}: kl_total {p['kl_total']} out of range")
        return errors

    def _commutator(self, job, sections) -> list[str]:
        errors = []
        section = sections["commutator"]
        expected = sum(math.comb(len(c["block"]), 2) for c in job.contexts if len(c["block"]) >= 3)
        if len(section["pairs"]) != expected:
            errors.append(f"{len(section['pairs'])} commutator pairs, expected {expected}")
        values = [p["value"] for p in section["pairs"]]
        for conflict in section["conflict"]:
            values.extend(conflict["pair_values"].values())
            if abs(conflict["value"] - sum(conflict["pair_values"].values())) > MATCH:
                errors.append(f"context {conflict['context_id']}: conflict is not the sum of its pairs")
        if any(not (0.0 <= v <= SQRT_LN2 + 1e-12) for v in values):
            errors.append("commutator value outside [0, sqrt(ln 2)]")
        return errors

    def _stress(self, job, sections) -> list[str]:
        errors = []
        section = sections["stress"]
        table = self._table(job)
        cfg = job.config["stress"]
        runs = cfg["runs"]
        widths = sorted(set(cfg["widths"]) | {1})
        rows = section["rows"]
        if section["runs"] != runs:
            errors.append(f"report says {section['runs']} runs, config {runs}")
        if len(rows) != len(job.contexts) * len(cfg["schedulers"]) * len(widths):
            errors.append(f"{len(rows)} stress rows for {len(job.contexts)} contexts")
        width_one = {(r["context_id"], r["scheduler"]): r["nll"] for r in rows if r["width"] == 1}
        for cid, context in enumerate(job.contexts):
            probs = block_probs(table, context)
            h = entropy(probs)
            p = probs.reshape(-1)
            p = p[p > 0]
            sd = math.sqrt(max(0.0, float((p * np.log(p) ** 2).sum()) - h * h))
            tc = sum(entropy(marginal(probs, (k,))) for k in range(probs.ndim)) - h
            n = len(context["block"])
            for r in (r for r in rows if r["context_id"] == cid):
                where = f"context {cid} {r['scheduler']} w={r['width']}"
                if not (math.isfinite(r["nll"]) and r["nll"] >= 0):
                    errors.append(f"{where}: nll {r['nll']}")
                if r["degradation"] != r["nll"] - width_one[(cid, r["scheduler"])]:
                    errors.append(f"{where}: degradation is not nll minus the width-1 nll")
                if r["width"] == 1 and r["degradation"] != 0.0:
                    errors.append(f"{where}: width-1 degradation {r['degradation']} is not 0")
                if abs(r["tc"] - tc) > MATCH:
                    errors.append(f"{where}: tc predictor {r['tc']} != {tc}")
                if not (0.0 <= r["conflict"] <= math.comb(n, 2) * SQRT_LN2 + 1e-12):
                    errors.append(f"{where}: conflict {r['conflict']} out of range")
                if r["ecirc_abs"] < 0 or r["mean_eps"] < -NOISE:
                    errors.append(f"{where}: negative predictor")
                if job.exact and (r["ecirc_abs"] > NOISE or abs(r["mean_eps"]) > NOISE):
                    errors.append(f"{where}: exact conditionals with ecirc_abs {r['ecirc_abs']}, eps {r['mean_eps']}")
            if job.exact:
                # Width-1 decodes of exact conditionals sample p(block | observed) under every
                # scheduler (each picks the next position from values already drawn), and the
                # schedulers draw independently, so their mean NLLs pool into one sharper test.
                nll = width_one[(cid, "left-to-right")]
                if abs(nll - h) > Z * sd / math.sqrt(runs) + NOISE:
                    errors.append(f"context {cid}: left-to-right sampled nll {nll} vs H(block|observed) {h} (sd {sd})")
                pooled = [v for (c, _), v in width_one.items() if c == cid]
                mean = sum(pooled) / len(pooled)
                if abs(mean - h) > Z * sd / math.sqrt(runs * len(pooled)) + NOISE:
                    errors.append(f"context {cid}: width-1 sampled nll {mean} over all schedulers vs H {h} (sd {sd})")
        return errors

    def _synth_gen(self, job, sections) -> list[str]:
        errors = []
        path = sections["synth_gen"]["model_file"]
        data = json.loads(Path(path).read_text())
        m, vocab = job.recipe.positions, job.recipe.vocab
        log_mass = np.asarray(data["log_mass"], dtype=np.float64)
        if (data["positions"], data["vocab_size"], log_mass.size) != (m, vocab, vocab**m):
            errors.append(f"model file shape {(data['positions'], data['vocab_size'], log_mass.size)}")
        total = float(np.log(np.exp(log_mass).sum()))
        if abs(total) > NOISE or log_mass.min() < -50.0 - NOISE:
            errors.append(f"model log mass not normalised (log total {total}) or below the floor")
        return errors

    def _train(self, job, sections) -> list[str]:
        errors = []
        section = sections["training"]
        train = job.config["train"]
        history = section["history"]
        loss = history["loss"]
        if section["steps_run"] != len(loss) or not (1 <= len(loss) <= train["steps"]):
            errors.append(f"steps_run {section['steps_run']} with {len(loss)} losses")
        for key in ("loss", "penalty", "grad_norm"):
            if not all(math.isfinite(v) for v in history[key]):
                errors.append(f"non-finite {key} in the history")
        if section["final_loss"] != loss[-1]:
            errors.append("final_loss is not the last loss")
        if train["ecirc_weight"] == 0 and any(v != 0.0 for v in history["penalty"]):
            errors.append("penalty recorded with the penalty off")
        table = load_log_mass(job.source_model)
        m = table.ndim
        cells = [cell_entropies(table, i, pat) for i in range(m) for pat in covered_patterns(train["coverage"], i, m)]
        entropies = np.concatenate(cells)
        bound = float(entropies.min() if train["coverage"] == "fraction" else entropies.mean())
        if section["final_loss"] < bound - NOISE:
            errors.append(f"final loss {section['final_loss']} below the covered target entropy {bound}")
        errors.extend(self._reload(section["model_file"], table))
        return errors

    @staticmethod
    def _reload(path, table: np.ndarray) -> list[str]:
        from curlgauge.core import load_model

        data = json.loads(Path(path).read_text())
        values = np.asarray(data["logit_table"]["values"], dtype=np.float64)
        logits = load_model(path).oracle.table.logits.reshape(-1)
        errors = []
        if not np.array_equal(logits, values):
            errors.append("reloaded logit table differs from the saved values")
        if np.abs(np.asarray(data["log_mass"]) - table.reshape(-1)).max() > NOISE:
            errors.append("trained model file's log mass differs from its source model")
        return errors
