"""Tests of the benchmark itself: output checks, corpus, tracer.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cellres  # noqa: E402
import cellres.cli  # noqa: E402
from checks import check  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import FIVE_GEN, WORKLOADS, Corpus, Op, generic_antichain  # noqa: E402


def run_op(op, tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text(op.file_text(), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cellres.cli.main(op.argv(str(path)))
    return code, out.getvalue()


GENERIC = generic_antichain(random.Random(3), 3, 4, True)


def _drop_first_component(doc):
    doc["components"] = doc["components"][1:]


def _add_redundant_component(doc):
    c = list(doc["components"][0])
    doc["components"].append([x + 1 if x else 0 for x in c])


def _flip(key):
    def corrupt(doc):
        doc[key] = not doc[key]
    return corrupt


def _verdict(doc):
    doc["duality"]["verdict"] = "consistent"


def _face_label(doc):
    doc["complex"]["faces"][-1]["label"][0] += 1


CORRUPTIONS = [
    (("decompose",), _drop_first_component),
    (("decompose", "--method", "scarf"), _add_redundant_component),
    (("resolve", "--complex", "taylor"), _flip("is_resolution")),
    (("resolve", "--complex", "scarf"), _flip("is_minimal")),
    (("resolve", "--complex", "scarf"), _flip("chain_ok")),
    (("residue",), _verdict),
    (("verify",), _flip("all_passed")),
    (("scarf",), _face_label),
    (("check",), _flip("generic")),
]


@pytest.mark.parametrize("args,corrupt", CORRUPTIONS,
                         ids=[f"{' '.join(a)}:{c.__name__}" for a, c in CORRUPTIONS])
def test_corrupted_output_is_caught(tmp_path, args, corrupt):
    op = Op(args[0], args, GENERIC)
    code, out = run_op(op, tmp_path)
    assert check(op, code, out) is None
    doc = json.loads(out)
    corrupt(doc)
    assert check(op, code, json.dumps(doc)) is not None


def test_wrong_exit_code_is_caught(tmp_path):
    op = Op("decompose-scarf", ("decompose", "--method", "scarf"), FIVE_GEN, expect_exit=3)
    code, out = run_op(op, tmp_path)
    assert code == 3 and check(op, code, out) is None
    assert check(op, 0, out) is not None


def test_truncated_output_is_caught(tmp_path):
    op = Op("decompose", ("decompose",), GENERIC)
    code, out = run_op(op, tmp_path)
    assert check(op, code, out[: len(out) // 2]) is not None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_no_ideal_repeats_and_same_seed_same_ops(workload):
    corpus = Corpus(workload, 7)
    ops = [op for i in range(4) for op in corpus.cycle(i)]
    assert len({op.gens for op in ops}) == len(ops)
    again = Corpus(workload, 7)
    assert [op for i in range(4) for op in again.cycle(i)] == ops
    with pytest.raises(ValueError, match="repeats"):
        corpus.add(ops[0])


def test_residue_span_parents(tmp_path):
    op = Op("residue", ("residue",), GENERIC)
    path = tmp_path / "ideal.txt"
    path.write_text(op.file_text(), encoding="utf-8")
    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        tracer.enter("cli.main")
        assert cellres.cli.main(op.argv(str(path))) == 0
        tracer.exit()
    parents = {(name, parent) for name, parent, *_ in tracer.spans}
    assert ("decompose.decompose_brute", "residue.residue_current") in parents
    assert ("residue.residue_current", "residue.duality_check") in parents
    assert ("residue.duality_check", "cli.main") in parents
    assert tracer.counts["decompose.brute_calls"] >= 1


def _snapshot():
    state = {}
    for key, module in sys.modules.items():
        if module is not None and (key == "cellres" or key.startswith("cellres.")):
            for name, value in vars(module).items():
                state[(key, name)] = value
                if isinstance(value, type) and value.__module__ == key:
                    for meth, fn in vars(value).items():
                        state[(key, name, meth)] = fn
    return state


def test_uninstall_restores_originals():
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    during = _snapshot()
    changed = {k for k in before if during.get(k) is not before[k]}
    assert ("cellres.residue", "decompose_brute") in changed
    assert ("cellres.complexes", "matrix_rank") in changed
    assert ("cellres.monomial", "MonomialIdeal", "intersect") in changed
    tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_every_layer_span_is_installed():
    from run import LAYER_TIMES
    with Tracer() as tracer:
        installed = set(tracer.installed)
    wanted = {s for spans in LAYER_TIMES.values() for s in spans} - {"cli.main"}
    assert wanted <= installed
    assert "monomial.lcm" not in installed and "cli.main" not in installed
