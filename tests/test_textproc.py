import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiref import textproc
from multiref.errors import CorpusFormatError
from multiref.textproc import (
    SUBWORD_CACHE_SIZE,
    WORD_CACHE_SIZE,
    SubwordVocab,
    WORD_MARKER,
    load_subword_vocab,
    tokenize_chars,
    tokenize_subwords,
    tokenize_words,
)

import oracles

texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FFF),
    max_size=40,
)


class TestTokenizeWords:
    def test_punctuation_split(self):
        assert tokenize_words("Hello, world!") == ("Hello", ",", "world", "!")

    def test_empty(self):
        assert tokenize_words("") == ()

    def test_plain_split(self):
        assert tokenize_words("a b") == ("a", "b")

    def test_nested_punctuation(self):
        assert tokenize_words("(Hello!)") == ("(", "Hello", "!", ")")

    def test_interior_punctuation_kept(self):
        assert tokenize_words("don't stop 3.5 e-mail") == (
            "don't",
            "stop",
            "3.5",
            "e-mail",
        )

    def test_all_punctuation_chunk(self):
        assert tokenize_words("!!!") == ("!", "!", "!")

    def test_case_preserved_by_default(self):
        assert tokenize_words("MiXeD") == ("MiXeD",)
        assert tokenize_words("MiXeD", lowercase=True) == ("mixed",)

    def test_nfc_unifies_composed_and_decomposed_forms(self):
        composed = "café"
        decomposed = "café"
        assert tokenize_words(composed) == tokenize_words(decomposed)
        assert tokenize_chars(composed) == tokenize_chars(decomposed)

    @given(texts)
    def test_deterministic(self, text):
        assert tokenize_words(text) == tokenize_words(text)

    @given(texts)
    def test_no_empty_tokens(self, text):
        assert all(tok for tok in tokenize_words(text))


class TestTokenizeChars:
    def test_whitespace_removed(self):
        assert tokenize_chars("ab c") == ("a", "b", "c")

    def test_single_cjk_char(self):
        assert tokenize_chars("猫") == ("猫",)

    def test_repeated_whitespace(self):
        assert tokenize_chars("a  b") == ("a", "b")

    @given(texts)
    def test_never_emits_whitespace(self, text):
        assert not any(tok.isspace() for tok in tokenize_chars(text))

    @given(texts, st.booleans())
    def test_matches_oracle(self, text, lowercase):
        assert list(tokenize_chars(text, lowercase)) == oracles.char_tokens(text, lowercase)


class TestTokenizeSubwords:
    vocab = SubwordVocab(
        frozenset({"un", "happy", f"{WORD_MARKER}un", f"{WORD_MARKER}happy", f"{WORD_MARKER}unhappy"})
    )

    def test_longest_match_wins(self):
        assert tokenize_subwords("unhappy", self.vocab) == (f"{WORD_MARKER}unhappy",)

    def test_marker_dropped_when_unmatched(self):
        vocab = SubwordVocab(frozenset({"a", "b"}))
        assert tokenize_subwords("ab", vocab) == ("a", "b")

    def test_empty_input(self):
        assert tokenize_subwords("", self.vocab) == ()

    def test_unk_fallback(self):
        vocab = SubwordVocab(frozenset({"a"}), unk_piece="<unk>")
        assert tokenize_subwords("axa", vocab) == ("a", "<unk>", "a")

    def test_greedy_is_not_optimal_search(self):
        # Greedy grabs "ab" and is then left with unmatched "c".
        vocab = SubwordVocab(frozenset({"ab", "a", "bc"}), unk_piece="?")
        assert tokenize_subwords("abc", vocab) == ("ab", "?")

    @given(st.text(alphabet="abcxy ", max_size=30))
    def test_output_closed_over_vocab_and_unk(self, text):
        vocab = SubwordVocab(
            frozenset({f"{WORD_MARKER}ab", "ab", "a", "c", f"{WORD_MARKER}c"}),
            unk_piece="<unk>",
        )
        allowed = set(vocab.entries) | {vocab.unk_piece}
        assert set(tokenize_subwords(text, vocab)) <= allowed

    @given(st.lists(st.sampled_from(["ab", "ba", "aab", "b"]), min_size=1, max_size=6))
    def test_roundtrip_with_marker_in_vocab(self, words):
        # With the bare marker present every word start matches, so joining
        # the pieces and mapping the marker back to a space recovers the
        # whitespace-normalized input.
        vocab = SubwordVocab(frozenset({WORD_MARKER, "a", "b", f"{WORD_MARKER}a", f"{WORD_MARKER}b"}))
        text = " ".join(words)
        pieces = tokenize_subwords(text, vocab)
        rebuilt = "".join(pieces).replace(WORD_MARKER, " ").strip()
        assert rebuilt == " ".join(text.split())


def joined(alphabet, **sizes):
    return st.lists(st.sampled_from(alphabet), **sizes).map("".join)


# Cased, punctuation, composed/decomposed and case-expanding characters
# ("İ" lowercases to two code points) and several kinds of whitespace.
word_texts = joined(
    [*"aAbBzZ.,!'(-)\"", " ", "\t", "\n", "\u3000", "é", "e\u0301", "İ", "ß", "Σ", "。"],
    max_size=40,
)
subword_texts = joined([*"abAB x", "é", "e\u0301"], max_size=30)
subword_entries = st.frozensets(
    joined([*"abAB", WORD_MARKER, "é"], min_size=1, max_size=3), min_size=1, max_size=12
)


class TestTokenizerCaches:
    """The cached tokenizers against the oracles, before and after their caches fill."""

    @given(word_texts, st.booleans())
    def test_words_match_oracle_cold_and_warm(self, text, lowercase):
        textproc._peel.cache_clear()
        expected = oracles.word_tokens(text, lowercase)
        assert list(tokenize_words(text, lowercase)) == expected
        misses = textproc._peel.cache_info().misses
        assert list(tokenize_words(text, lowercase)) == expected
        assert textproc._peel.cache_info().misses == misses

    @given(subword_texts, subword_entries, st.booleans())
    def test_subwords_match_oracle_cold_and_warm(self, text, entries, lowercase):
        vocab = SubwordVocab(entries, unk_piece="<unk>")  # a new vocabulary starts cold
        expected = oracles.subword_pieces(text, entries, "<unk>", lowercase)
        assert list(tokenize_subwords(text, vocab, lowercase)) == expected
        misses = vocab._segment.cache_info().misses
        assert list(tokenize_subwords(text, vocab, lowercase)) == expected
        assert vocab._segment.cache_info().misses == misses

    @given(subword_texts, subword_entries, subword_entries)
    def test_two_vocabularies_keep_their_own_pieces(self, text, first, second):
        vocabs = [(SubwordVocab(entries), entries) for entries in (first, second)]
        for _ in range(2):  # the second round is served from both caches
            for vocab, entries in vocabs:
                expected = oracles.subword_pieces(text, entries, vocab.unk_piece)
                assert list(tokenize_subwords(text, vocab)) == expected

    def test_same_word_segmented_per_vocabulary(self):
        whole = SubwordVocab(frozenset({f"{WORD_MARKER}unhappy"}))
        split = SubwordVocab(frozenset({f"{WORD_MARKER}un", "happy"}))
        for _ in range(2):
            assert tokenize_subwords("unhappy", whole) == (f"{WORD_MARKER}unhappy",)
            assert tokenize_subwords("unhappy", split) == (f"{WORD_MARKER}un", "happy")

    def test_copies_and_pickles_get_their_own_cache(self):
        vocab = SubwordVocab(frozenset({"a", f"{WORD_MARKER}b"}), unk_piece="?")
        tokenize_subwords("ab", vocab)
        for clone in (copy.copy(vocab), copy.deepcopy(vocab), pickle.loads(pickle.dumps(vocab))):
            assert clone == vocab and clone.unk_piece == "?"
            assert clone._segment is not vocab._segment
            assert tokenize_subwords("ab ba", clone) == tokenize_subwords("ab ba", vocab)

    def test_caches_are_bounded(self):
        assert textproc._peel.cache_info().maxsize == WORD_CACHE_SIZE
        vocab = SubwordVocab(frozenset({"a"}))
        assert vocab._segment.cache_info().maxsize == SUBWORD_CACHE_SIZE


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

    def test_empty_unk_piece_rejected(self):
        with pytest.raises(ValueError, match="unk piece"):
            SubwordVocab(frozenset({"a"}), unk_piece="")

    def test_byte_order_mark_before_header_is_skipped(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes("\ufeff#unk=<UNK>\n▁the\n".encode("utf-8"))
        vocab = load_subword_vocab(path)
        assert vocab.unk_piece == "<UNK>"
        assert vocab.entries == frozenset({"▁the"})
