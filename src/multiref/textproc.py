"""Deterministic tokenization shared by all metrics.

Three tokenizers, each a pure function from text to a tuple of token
strings: whitespace/punctuation word tokens, whitespace-stripped character
tokens, and greedy longest-match subword pieces against a user-supplied
vocabulary. Each NFC-normalizes and optionally lowercases the text first.
None emits an empty or whitespace token.

Multi-reference scoring tokenizes many near-paraphrases, so most words recur.
Two bounded caches keep the per-word work to once per distinct word:
`tokenize_words` peels the punctuation of each distinct whitespace chunk once
(a module-level `functools.lru_cache` of `WORD_CACHE_SIZE` chunks), and
`tokenize_subwords` segments each distinct word once per vocabulary (an
`lru_cache` of `SUBWORD_CACHE_SIZE` words held by the `SubwordVocab`
instance, so a lookup never compares vocabularies). Normalization and
lowercasing apply to the whole text before it is split, so a chunk alone
determines its tokens. The caches change no result, and no flag turns them off.
"""

import unicodedata
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from pathlib import Path

from .corpus_io import read_lines
from .errors import CorpusFormatError

#: SentencePiece-style word-boundary marker prefixed to every word.
WORD_MARKER = "▁"

#: Default unknown piece when a vocabulary file declares none.
DEFAULT_UNK_PIECE = "<unk>"

#: Distinct whitespace chunks whose word tokens are kept, least recently used first out.
WORD_CACHE_SIZE = 1 << 16

#: Distinct words whose subword pieces each vocabulary keeps.
SUBWORD_CACHE_SIZE = 1 << 16


@dataclass(frozen=True)
class SubwordVocab:
    """Subword inventory used for greedy longest-match segmentation."""

    entries: frozenset[str]
    unk_piece: str = DEFAULT_UNK_PIECE

    def __post_init__(self):
        if not self.entries:
            raise ValueError("subword vocabulary must not be empty")
        if "" in self.entries:
            raise ValueError("subword vocabulary must not contain the empty string")
        if not self.unk_piece:
            raise ValueError("the unk piece must not be empty")
        object.__setattr__(self, "_max_len", max(len(e) for e in self.entries))
        # word -> its pieces; bound to this instance's entries, not keyed by them.
        segment = partial(_segment_word, self.entries, self._max_len, self.unk_piece)
        object.__setattr__(self, "_segment", lru_cache(maxsize=SUBWORD_CACHE_SIZE)(segment))

    def __reduce__(self):
        # Pickle and copy the fields only; the copy builds its own cache.
        return SubwordVocab, (self.entries, self.unk_piece)


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _normalize(text: str, lowercase: bool) -> str:
    text = unicodedata.normalize("NFC", text)
    return text.lower() if lowercase else text


def tokenize_words(text: str, lowercase: bool = False) -> tuple[str, ...]:
    """Split text into word tokens, mteval-13a style.

    NFC-normalizes, optionally lowercases, splits on whitespace, then peels
    leading and trailing punctuation off each chunk as standalone tokens.
    Interior punctuation (don't, e-mail, 3.5) is left in place.
    """
    return tuple(chain.from_iterable(map(_peel, _normalize(text, lowercase).split())))


@lru_cache(maxsize=WORD_CACHE_SIZE)
def _peel(chunk: str) -> tuple[str, ...]:
    """Word tokens of one whitespace-free chunk: its edge punctuation peeled off."""
    start = 0
    end = len(chunk)
    while start < end and _is_punct(chunk[start]):
        start += 1
    while end > start and _is_punct(chunk[end - 1]):
        end -= 1
    core = (chunk[start:end],) if start < end else ()
    return (*chunk[:start], *core, *chunk[end:])


def tokenize_chars(text: str, lowercase: bool = False) -> tuple[str, ...]:
    """Strip all whitespace and emit one token per Unicode scalar value."""
    return tuple("".join(_normalize(text, lowercase).split()))


def tokenize_subwords(
    text: str, vocab: SubwordVocab, lowercase: bool = False
) -> tuple[str, ...]:
    """Greedy longest-match segmentation against a subword vocabulary.

    Each whitespace-delimited word is prefixed with the word-boundary marker
    and matched left to right, always taking the longest vocabulary entry.
    When no marked entry matches at the start of a word, the marker is dropped
    and matching restarts on the bare word; any position with no match at all
    emits the vocabulary's unk piece and advances one character.
    """
    return tuple(chain.from_iterable(map(vocab._segment, _normalize(text, lowercase).split())))


def _segment_word(entries: frozenset[str], max_len: int, unk_piece: str, word: str):
    """Pieces of one whitespace-free word; `SubwordVocab` caches it per word."""
    stream = WORD_MARKER + word
    if _longest_match(stream, 0, entries, max_len) is None:
        stream = word  # no marked match: drop the boundary marker
    pieces: list[str] = []
    pos = 0
    while pos < len(stream):
        match = _longest_match(stream, pos, entries, max_len)
        if match is None:
            pieces.append(unk_piece)
            pos += 1
        else:
            pieces.append(match)
            pos += len(match)
    return tuple(pieces)


def _longest_match(stream: str, pos: int, entries: frozenset[str], max_len: int):
    limit = min(max_len, len(stream) - pos)
    for length in range(limit, 0, -1):
        candidate = stream[pos : pos + length]
        if candidate in entries:
            return candidate
    return None


def tokens_of(seq) -> tuple[str, ...]:
    """The tokens of any iterable of token strings, as a tuple.

    A plain string is rejected: iterating it would yield its characters.
    """
    if isinstance(seq, str):
        raise TypeError("expected a token sequence, got a str; tokenize the text first")
    return tuple(seq)


def load_subword_vocab(path: str | Path) -> SubwordVocab:
    """Load a vocabulary file: one piece per line (`\\n` or `\\r\\n`), optional `#unk=<piece>` header."""
    unk_piece = DEFAULT_UNK_PIECE
    entries: set[str] = set()
    for lineno, line in read_lines(path, "vocabulary"):
        line = line.rstrip("\r\n")
        if lineno == 1 and line.startswith("#unk="):
            unk_piece = line[len("#unk=") :]
            if not unk_piece:
                raise CorpusFormatError("empty unk piece in header", str(path), lineno)
            continue
        if not line:
            continue
        entries.add(line)
    if not entries:
        raise CorpusFormatError("vocabulary file contains no pieces", str(path))
    return SubwordVocab(entries=frozenset(entries), unk_piece=unk_piece)
