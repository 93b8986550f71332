"""The library names and parameters the benchmark's tracer relies on.

``perfbench/spans.py`` wraps library functions by module path and its
hooks read some of their positional arguments; a renamed function or a
moved parameter would only show in a traced benchmark run. The tracer is
imported from the benchmark's own file and used read-only.
"""

import importlib.util
import inspect
from pathlib import Path

import kgedenoise
from kgedenoise import (agent, config, evaluation, graph, models, noise,  # noqa: F401
                        seeding, synth, trainer)

_SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_FILE)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def resolve(path):
    target = kgedenoise
    for part in path.split("."):
        target = getattr(target, part)
    return target


def test_tracer_wraps_every_layer_path_and_restores_it():
    paths = [path for _, _, layer_paths in spans.LAYERS for path in layer_paths]
    originals = {path: resolve(path) for path in paths}
    tracer = spans.Tracer().install(kgedenoise)
    try:
        assert all(resolve(path) is not original for path, original in originals.items())
    finally:
        tracer.close()
    assert all(resolve(path) is original for path, original in originals.items())


def positional(function):
    return [name for name, parameter in inspect.signature(function).parameters.items()
            if parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD]


def test_hooks_read_the_parameters_they_name():
    assert positional(models.loss_and_grad)[3] == "positives"
    assert positional(models.adam_step)[0:2] == ["store", "grads"]
    assert positional(evaluation.link_prediction)[2] == "graph"
    assert positional(evaluation.max_f1_sweep)[0] == "scores"
