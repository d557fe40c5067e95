"""Every n-gram order is bounded by `kernels.MAX_ORDER`.

The cost of counting grows with the order, so an order of 10**9 used to run
without end. Each order knob, given 10**12 as a flag, through `--config` or
to the library, must fail at once with a message naming the knob; each case
runs under a one-second alarm.
"""

import contextlib
import json
import signal

import pytest

from multiref import kernels, metrics
from multiref.cli import main
from multiref.diversity import diversity_report, distinct_n, self_bleu

HUGE = 10**12
MAX = kernels.MAX_ORDER

pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")


class Overtime(Exception):
    pass


@contextlib.contextmanager
def within(seconds: float):
    """Raise `Overtime` in the block once it has run for `seconds`."""

    def expire(signum, frame):
        raise Overtime(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Per knob: the command, its flags, the same values as --config keys, and the message.
CLI_KNOBS = {
    "max-order": ("score", ["--max-order", str(HUGE)], {"max_order": HUGE},
                  f"max_order must be <= {MAX}, got {HUGE}"),
    "chrf-order": ("score", ["--metrics", "chrf", "--chrf-order", str(HUGE)], {"metrics": "chrf", "chrf_order": HUGE},
                   f"--chrf-order must be <= {MAX}, got {HUGE}"),
    "rouge-n": ("score", ["--metrics", f"rouge{HUGE}"], {"metrics": f"rouge{HUGE}"},
                f"the n-gram order of 'rouge{HUGE}' must be <= {MAX}, got {HUGE}"),
    "distinct-n": ("diversity", ["--n", str(HUGE)], {"n": HUGE}, f"--n must be <= {MAX}, got {HUGE}"),
}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("knob", CLI_KNOBS)
def test_a_huge_order_fails_at_once_naming_its_flag(tmp_path, jsonl_writer, capsys, knob, via):
    command, flags, config, message = CLI_KNOBS[knob]
    segments, outputs, config_path = tmp_path / "seg.jsonl", tmp_path / "out.jsonl", tmp_path / "config.json"
    jsonl_writer(segments, [{"id": "s1", "source": "x", "gold_refs": ["the cat sat on the mat"]}])
    jsonl_writer(outputs, [{"system": "A", "segment": "s1", "hypothesis": "the cat sat on a mat"}])
    config_path.write_text(json.dumps(config), encoding="utf-8")
    argv = [command, "--outputs", str(outputs)] + (["--segments", str(segments)] if command == "score" else [])
    argv = [*argv, *flags] if via == "flag" else ["--config", str(config_path), *argv]
    with within(1.0):
        code = main(argv)
    assert code == 1
    assert capsys.readouterr().err == f"multiref: error: {message}\n"


# Each library entry point that takes an order, called on a one-word text, and its message.
LIBRARY_KNOBS = {
    "BleuConfig": (lambda: metrics.bleu_sentence(["a"], [["a"]], metrics.BleuConfig(max_order=HUGE)),
                   f"max_order must be <= {MAX}, got {HUGE}"),
    "self_bleu": (lambda: self_bleu([["a"], ["a"]], metrics.BleuConfig(max_order=HUGE)),
                  f"max_order must be <= {MAX}, got {HUGE}"),
    "MultiRefScorer-chrf": (lambda: metrics.chrf_sentence("a", ["a"], n_max=HUGE),
                            f"chrf_order must be <= {MAX}, got {HUGE}"),
    "MultiRefScorer-rouge": (
        lambda: metrics.MultiRefScorer([f"rouge{HUGE}"], words=str.split).segment({"A": "a"}, ["a"]),
        f"the n-gram order of 'rouge{HUGE}' must be <= {MAX}, got {HUGE}",
    ),
    "rouge_n": (lambda: metrics.rouge_n(["a"], [["a"]], HUGE), f"n-gram order must be <= {MAX}, got {HUGE}"),
    "distinct_n": (lambda: distinct_n([("a",)], HUGE), f"n-gram order must be <= {MAX}, got {HUGE}"),
    "diversity_report": (lambda: diversity_report([("a",)], HUGE), f"n-gram order must be <= {MAX}, got {HUGE}"),
    "ScoreSettings-chrf": (lambda: metrics.ScoreSettings(["chrf"], chrf_order=HUGE),
                           f"--chrf-order must be <= {MAX}, got {HUGE}"),
    "ScoreSettings-rouge": (lambda: metrics.ScoreSettings([f"rouge{HUGE}"]),
                            f"the n-gram order of 'rouge{HUGE}' must be <= {MAX}, got {HUGE}"),
}


@pytest.mark.parametrize("knob", LIBRARY_KNOBS)
def test_a_huge_order_fails_at_once_in_the_library(knob):
    call, message = LIBRARY_KNOBS[knob]
    with within(1.0), pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("order", [1, MAX])
def test_the_bounds_themselves_are_accepted(order):
    assert metrics.BleuConfig(max_order=order).max_order == order
    assert metrics.ScoreSettings(["chrf", f"rouge{order}"], chrf_order=order).chrf_order == order
    assert metrics.chrf_sentence("a b", ["a b"], n_max=order).value == 100.0
    assert distinct_n([("a", "b")], order) == (1.0 if order <= 2 else 0.0)
