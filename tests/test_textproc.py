import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiref.errors import CorpusFormatError
from multiref.textproc import (
    SubwordVocab,
    TokenSequence,
    WORD_MARKER,
    load_subword_vocab,
    tokenize_chars,
    tokenize_subwords,
    tokenize_words,
)

texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FFF),
    max_size=40,
)


class TestTokenizeWords:
    def test_punctuation_split(self):
        assert tokenize_words("Hello, world!").tokens == ("Hello", ",", "world", "!")

    def test_empty(self):
        assert tokenize_words("").tokens == ()

    def test_plain_split(self):
        assert tokenize_words("a b").tokens == ("a", "b")

    def test_nested_punctuation(self):
        assert tokenize_words("(Hello!)").tokens == ("(", "Hello", "!", ")")

    def test_interior_punctuation_kept(self):
        assert tokenize_words("don't stop 3.5 e-mail").tokens == (
            "don't",
            "stop",
            "3.5",
            "e-mail",
        )

    def test_all_punctuation_chunk(self):
        assert tokenize_words("!!!").tokens == ("!", "!", "!")

    def test_case_preserved_by_default(self):
        assert tokenize_words("MiXeD").tokens == ("MiXeD",)
        assert tokenize_words("MiXeD", lowercase=True).tokens == ("mixed",)

    def test_nfc_unifies_composed_and_decomposed_forms(self):
        composed = "café"
        decomposed = "café"
        assert tokenize_words(composed).tokens == tokenize_words(decomposed).tokens
        assert tokenize_chars(composed).tokens == tokenize_chars(decomposed).tokens

    @given(texts)
    def test_deterministic(self, text):
        assert tokenize_words(text).tokens == tokenize_words(text).tokens

    @given(texts)
    def test_no_empty_tokens(self, text):
        assert all(tok for tok in tokenize_words(text).tokens)


class TestTokenizeChars:
    def test_whitespace_removed(self):
        assert tokenize_chars("ab c").tokens == ("a", "b", "c")

    def test_single_cjk_char(self):
        assert tokenize_chars("猫").tokens == ("猫",)

    def test_repeated_whitespace(self):
        assert tokenize_chars("a  b").tokens == ("a", "b")

    @given(texts)
    def test_never_emits_whitespace(self, text):
        assert not any(tok.isspace() for tok in tokenize_chars(text).tokens)


class TestTokenizeSubwords:
    vocab = SubwordVocab(
        frozenset({"un", "happy", f"{WORD_MARKER}un", f"{WORD_MARKER}happy", f"{WORD_MARKER}unhappy"})
    )

    def test_longest_match_wins(self):
        assert tokenize_subwords("unhappy", self.vocab).tokens == (f"{WORD_MARKER}unhappy",)

    def test_marker_dropped_when_unmatched(self):
        vocab = SubwordVocab(frozenset({"a", "b"}))
        assert tokenize_subwords("ab", vocab).tokens == ("a", "b")

    def test_empty_input(self):
        assert tokenize_subwords("", self.vocab).tokens == ()

    def test_unk_fallback(self):
        vocab = SubwordVocab(frozenset({"a"}), unk_piece="<unk>")
        assert tokenize_subwords("axa", vocab).tokens == ("a", "<unk>", "a")

    def test_greedy_is_not_optimal_search(self):
        # Greedy grabs "ab" and is then left with unmatched "c".
        vocab = SubwordVocab(frozenset({"ab", "a", "bc"}), unk_piece="?")
        assert tokenize_subwords("abc", vocab).tokens == ("ab", "?")

    @given(st.text(alphabet="abcxy ", max_size=30))
    def test_output_closed_over_vocab_and_unk(self, text):
        vocab = SubwordVocab(
            frozenset({f"{WORD_MARKER}ab", "ab", "a", "c", f"{WORD_MARKER}c"}),
            unk_piece="<unk>",
        )
        allowed = set(vocab.entries) | {vocab.unk_piece}
        assert set(tokenize_subwords(text, vocab).tokens) <= allowed

    @given(st.lists(st.sampled_from(["ab", "ba", "aab", "b"]), min_size=1, max_size=6))
    def test_roundtrip_with_marker_in_vocab(self, words):
        # With the bare marker present every word start matches, so joining
        # the pieces and mapping the marker back to a space recovers the
        # whitespace-normalized input.
        vocab = SubwordVocab(frozenset({WORD_MARKER, "a", "b", f"{WORD_MARKER}a", f"{WORD_MARKER}b"}))
        text = " ".join(words)
        pieces = tokenize_subwords(text, vocab).tokens
        rebuilt = "".join(pieces).replace(WORD_MARKER, " ").strip()
        assert rebuilt == " ".join(text.split())


class TestTokenSequence:
    def test_rejects_empty_token(self):
        with pytest.raises(ValueError):
            TokenSequence(("a", ""), "word")

    def test_rejects_whitespace_char_token(self):
        with pytest.raises(ValueError):
            TokenSequence((" ",), "char")

    def test_rejects_unknown_granularity(self):
        with pytest.raises(ValueError):
            TokenSequence(("a",), "sentence")


class TestVocabLoading:
    def test_load_with_header(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#unk=<oov>\n▁the\nthe\ncat\n", encoding="utf-8")
        vocab = load_subword_vocab(path)
        assert vocab.unk_piece == "<oov>"
        assert "▁the" in vocab.entries
        assert len(vocab.entries) == 3

    def test_load_without_header(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\n", encoding="utf-8")
        vocab = load_subword_vocab(path)
        assert vocab.unk_piece == "<unk>"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            load_subword_vocab(path)

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            SubwordVocab(frozenset())
