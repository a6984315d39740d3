"""The CI workflow file is well formed.

A YAML mapping that repeats a key keeps only the key's last value, so a step
with two `run:` keys silently drops the first command.  The loader here
rejects any repeated key, and every step must run exactly one thing, with a
name if it is a shell command.
"""

from pathlib import Path

import pytest
import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


class UniqueKeyLoader(yaml.SafeLoader):
    """`yaml.SafeLoader` that raises on a key repeated within one mapping."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found repeated key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep)


def step_problems(text: str) -> list[str]:
    """What is wrong with the steps of the workflow `text`, job by job."""
    doc = yaml.load(text, Loader=UniqueKeyLoader)
    problems = []
    for job, spec in doc["jobs"].items():
        for i, step in enumerate(spec["steps"]):
            label = f"{job} step {i} ({step.get('name', 'unnamed')})"
            if ("uses" in step) == ("run" in step):
                problems.append(f"{label}: needs exactly one of 'uses' and 'run'")
            if "run" in step and "name" not in step:
                problems.append(f"{label}: a 'run' step needs a name")
    return problems


def test_workflow_steps_are_well_formed():
    assert step_problems(WORKFLOW.read_text(encoding="utf-8")) == []


def test_loader_rejects_a_step_with_two_run_keys():
    text = ("jobs:\n  t:\n    steps:\n      - name: smoke\n"
            "        run: echo traced\n        run: echo timed\n")
    with pytest.raises(yaml.constructor.ConstructorError, match="repeated key 'run'"):
        step_problems(text)


@pytest.mark.parametrize("step,problem", [
    ("      - name: both\n        uses: actions/checkout@v4\n        run: echo x\n",
     "needs exactly one of 'uses' and 'run'"),
    ("      - name: neither\n        with:\n          x: 1\n",
     "needs exactly one of 'uses' and 'run'"),
    ("      - run: echo x\n", "a 'run' step needs a name"),
], ids=["uses_and_run", "neither", "unnamed_run"])
def test_malformed_steps_are_reported(step, problem):
    (found,) = step_problems("jobs:\n  t:\n    steps:\n" + step)
    assert found.endswith(problem)


def test_one_blas_thread_step_runs_every_byte_identity_file():
    # fit's rerun and helper-thread byte-identity tests live in test_train.py
    doc = yaml.load(WORKFLOW.read_text(encoding="utf-8"), Loader=UniqueKeyLoader)
    (step,) = [s for s in doc["jobs"]["tier1"]["steps"]
               if s.get("name") == "Kernel equivalence and model tests with one BLAS thread"]
    assert "OPENBLAS_NUM_THREADS=1" in step["run"]
    for path in ("tests/test_kernel_equivalence.py", "tests/test_model.py",
                 "tests/test_layers.py", "tests/test_train.py"):
        assert path in step["run"].split(), path
