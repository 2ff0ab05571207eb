"""Compile verifies every candidate, sharing the per-step work.

A cold ``compile_model`` enumerates every association tree and gives
each its full planlint verdict; what one call shares across trees is the
pure per-step work (transfers, lifts, operand comparisons, cost
instances), and nothing of it outlives the call.  These
tests pin that:

- (a) compile output equals ``tests/golden/compile_zoo.json`` (counts and
  promoted plans, generated before the sharing existed);
- (b) every candidate's verdict in a batch — healthy trees and seeded
  mutants mixed — equals the verdict it gets alone;
- (c) a batch gives one full verdict per candidate (counted);
- (d) after compile no memo is reachable, candidates and steps carry only
  their dataclass fields, and a compiled model pickles without memo state.
"""

import gc
import inspect
import json
import pickle
from dataclasses import fields
from pathlib import Path

import pytest

from repro.analysis import planlint
from repro.analysis.mutate import MUTATIONS, NotApplicable
from repro.core.assoc import Candidate, Step
from repro.core.codegen import clear_compile_cache, compile_model, enumerate_model
from repro.core.modelir import MODEL_IR_BUILDERS
from repro.core.pruning import prune_candidates
from repro.models import MODEL_NAMES

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "compile_zoo.json").read_text()
)
VARIANTS = {"weighted": {"weighted": True}, "spgemm": {"spgemm": True},
            "fusion": {"fusion": True}}
# every 64th enumerated tree (and every promoted one) is mutated
MUTANT_STRIDE = 64


def compile_args(key):
    name, _, variant = key.partition(":")
    return name, VARIANTS[variant] if variant else {}


def record(compiled):
    return {
        "enumerated_count": compiled.enumerated_count,
        "promoted": [
            [p.label, p.plan.name, list(p.scenarios)] for p in compiled.promoted
        ],
    }


def counting(fn):
    """A plain function counting its calls and keeping what it returned."""

    def wrapper(*args, **kwargs):
        wrapper.calls += 1
        result = fn(*args, **kwargs)
        wrapper.results.append(result)
        return result

    wrapper.calls = 0
    wrapper.results = []
    return wrapper


def batch_with_mutants(compiled, candidates):
    """All of a model's trees (``candidates``, in enumeration order), each
    mutant right after the tree it came from."""
    promoted = {p.plan.candidate for p in compiled.promoted}
    batch = []
    for k, cand in enumerate(candidates):
        batch.append(cand)
        if k % MUTANT_STRIDE and cand not in promoted:
            continue
        for mutation in MUTATIONS:
            if mutation.kind != "candidate":
                continue
            try:
                batch.append(mutation.apply(cand))
            except NotApplicable:
                pass
    return batch


def test_golden_covers_the_zoo():
    keys = set()
    for name in MODEL_NAMES:
        keys.add(name)
        if "weighted" in inspect.signature(MODEL_IR_BUILDERS[name]).parameters:
            keys.add(f"{name}:weighted")
    keys |= {"sgc:spgemm", "gat:fusion"}
    assert set(GOLDEN) == keys
    assert GOLDEN["tagcn"]["enumerated_count"] == 5184
    assert len(GOLDEN["tagcn"]["promoted"]) == 25
    assert GOLDEN["sgc"]["enumerated_count"] == 324
    assert len(GOLDEN["sgc"]["promoted"]) == 12


# ----------------------------------------------------------------------
# (a) compile output equals the golden file
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_compile_matches_golden(key):
    name, kwargs = compile_args(key)
    assert record(compile_model(name, **kwargs)) == GOLDEN[key]


# ----------------------------------------------------------------------
# (b) + (c) a batch verdict is the standalone verdict, one per candidate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_batch_verdicts_equal_standalone(key, monkeypatch):
    name, kwargs = compile_args(key)
    batch = batch_with_mutants(
        compile_model(name, **kwargs), enumerate_model(name, **kwargs)[1]
    )
    mutants = len(batch) - GOLDEN[key]["enumerated_count"]
    assert mutants > 0
    standalone = [planlint.analyze_candidate(c).to_dict() for c in batch]

    recorder = counting(planlint.analyze_candidate)
    monkeypatch.setattr(planlint, "analyze_candidate", recorder)
    legal, rejected = planlint.reject_illegal(batch)

    assert recorder.calls == len(batch)
    assert [v.to_dict() for v in recorder.results] == standalone
    assert len(legal) + len(rejected) == len(batch)
    assert len(rejected) >= mutants  # every mutant is an error
    # the rejected verdicts are the ones the batch computed
    by_id = {id(c): v for c, v in zip(batch, recorder.results)}
    assert all(by_id[id(c)] is v for c, v in rejected)


@pytest.mark.parametrize("name", ["tagcn", "sgc"])
def test_prune_verifies_every_candidate(name, monkeypatch):
    candidates = enumerate_model(name)[1]
    recorder = counting(planlint.analyze_candidate)
    monkeypatch.setattr(planlint, "analyze_candidate", recorder)
    promoted = prune_candidates(candidates)
    assert recorder.calls == len(candidates) == GOLDEN[name]["enumerated_count"]
    assert all(v.ok for v in recorder.results)
    assert len(promoted) == len(GOLDEN[name]["promoted"])


# ----------------------------------------------------------------------
# (d) no memo outlives the call
# ----------------------------------------------------------------------
def test_no_memo_survives_compile():
    clear_compile_cache()
    try:
        compiled = compile_model("tagcn")
        gc.collect()
        assert not [
            o for o in gc.get_objects() if isinstance(o, planlint._SharedWork)
        ]
        step_fields = {f.name for f in fields(Step)}
        cand_fields = {f.name for f in fields(Candidate)}
        candidates = enumerate_model("tagcn")[1] + [
            p.plan.candidate for p in compiled.promoted
        ]
        for cand in candidates:
            assert set(vars(cand)) == cand_fields
            for step in cand.steps:
                assert set(vars(step)) == step_fields
        blob = pickle.dumps(compiled)
        assert b"_SharedWork" not in blob
        assert record(pickle.loads(blob)) == GOLDEN["tagcn"]
    finally:
        clear_compile_cache()
