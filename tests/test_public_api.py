"""The public API: what `multiref` exports and what README "Library use" shows."""

import re
from pathlib import Path

import multiref
from multiref import SubwordVocab, tokenize_chars, tokenize_subwords, tokenize_words

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in multiref.__all__ if not hasattr(multiref, name)]
    assert missing == []


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})


def test_tokenizers_return_tuples_of_strings():
    vocab = SubwordVocab(frozenset({"▁the", "c", "a", "t"}))
    for tokens in (
        tokenize_words("The cat."),
        tokenize_chars("The cat."),
        tokenize_subwords("the cat", vocab),
    ):
        assert type(tokens) is tuple
        assert tokens and all(type(token) is str for token in tokens)
