"""Deterministic tokenization shared by all metrics.

Four tokenizers, each a pure function from text to a tuple of token
strings: whitespace/punctuation word tokens, whitespace-stripped character
tokens, greedy longest-match subword pieces against a user-supplied
vocabulary, and the pieces of text already segmented into subword pieces.
Each NFC-normalizes and optionally lowercases the text first. None emits an
empty or whitespace token.

Multi-reference scoring tokenizes many near-paraphrases, so most words recur.
Bounded caches keep the per-word work to once per distinct word:
`tokenize_words` peels the punctuation of each distinct whitespace chunk once
(a `functools.lru_cache` of `WORD_CACHE_SIZE` chunks), and `tokenize_subwords`
segments each distinct word once per piece set (an `lru_cache` of
`SUBWORD_CACHE_SIZE` words for each of the last `VOCAB_CACHE_SIZE` sets used,
found once per text by the set's identity, so an equal copy fills its own).
Normalization and lowercasing apply to the whole text before it is split, so
a chunk alone determines its tokens. The caches change no result, and no
flag turns them off.
"""

import unicodedata
from functools import lru_cache, partial
from itertools import chain
from pathlib import Path

from .corpus_io import read_lines
from .errors import CorpusFormatError
from .records import record

#: SentencePiece-style word-boundary marker prefixed to every word.
WORD_MARKER = "▁"

#: Default unknown piece when a vocabulary file declares none.
DEFAULT_UNK_PIECE = "<unk>"

#: Distinct whitespace chunks whose word tokens are kept, least recently used first out.
WORD_CACHE_SIZE = 1 << 16

#: Distinct words whose subword pieces each vocabulary keeps.
SUBWORD_CACHE_SIZE = 1 << 16

#: Piece sets whose word caches are kept: a `score` run uses one, and four let a library
#: caller alternate between a few while bounding the words kept to 4 * `SUBWORD_CACHE_SIZE`.
VOCAB_CACHE_SIZE = 4


class SubwordVocab(record("SubwordVocab", "entries unk_piece")):
    """Subword inventory used for greedy longest-match segmentation; immutable and hashable.

    Each piece, and the unk piece, is a non-empty string without whitespace,
    as text is split into words at whitespace before it is matched.
    """

    __slots__ = ()

    def __new__(cls, entries: frozenset[str], unk_piece: str = DEFAULT_UNK_PIECE):
        if not entries:
            raise ValueError("subword vocabulary must not be empty")
        if "" in entries:
            raise ValueError("subword vocabulary must not contain the empty string")
        for piece in entries:
            _check_piece(piece)
        _check_piece(unk_piece, unk=True)
        return tuple.__new__(cls, (entries, unk_piece))


def _check_piece(piece: str, unk: bool = False) -> str:
    """`piece`, unless it is empty or holds whitespace: text is split into words at whitespace before it is matched."""
    if piece.split() == [piece]:
        return piece
    if unk:
        raise ValueError(f"the unk piece must be non-empty without whitespace, got {piece!r}")
    raise ValueError(f"subword piece {piece!r} contains whitespace; keep the first column of a .vocab line")


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _normalize(text: str, lowercase: bool) -> str:
    text = unicodedata.normalize("NFC", text)
    return text.lower() if lowercase else text


def tokenize_words(text: str, lowercase: bool = False) -> tuple[str, ...]:
    """Split text into word tokens: whitespace chunks with their edge punctuation peeled off.

    NFC-normalizes, optionally lowercases, splits on whitespace, then peels
    leading and trailing punctuation (Unicode category P) off each chunk as
    standalone tokens. Interior punctuation (don't, e-mail, 3.5) and symbols
    are left in place. This is not mteval-13a: `a+b costs $5.` gives
    `a+b costs $5 .`, where 13a gives `a + b costs $ 5 .`.
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


def tokenize_subwords(text: str, vocab: SubwordVocab, lowercase: bool = False) -> tuple[str, ...]:
    """Greedy longest-match segmentation against a subword vocabulary.

    Each whitespace-delimited word is prefixed with the word-boundary marker
    and matched left to right, always taking the longest vocabulary entry.
    When no marked entry matches at the start of a word, the marker is dropped
    and matching restarts on the bare word; any position with no match at all
    emits the vocabulary's unk piece and advances one character.
    """
    segment = _segmenter(id(vocab.entries), vocab.entries, vocab.unk_piece)
    return tuple(chain.from_iterable(map(segment, _normalize(text, lowercase).split())))


def tokenize_pieces(text: str, lowercase: bool = False) -> tuple[str, ...]:
    """The pieces of text already segmented into subword pieces joined by whitespace."""
    return tuple(_normalize(text, lowercase).split())


@lru_cache(maxsize=VOCAB_CACHE_SIZE)
def _segmenter(key: int, entries: frozenset[str], unk_piece: str):
    """The word -> pieces function of one piece set, with its own cache of words.

    `key` is `id(entries)`, which a lookup compares first, so it compares no
    two sets; the function holds `entries`, so no other set has that id.
    """
    max_len = max(map(len, entries))
    return lru_cache(maxsize=SUBWORD_CACHE_SIZE)(partial(_segment_word, entries, max_len, unk_piece))


def _segment_word(entries: frozenset[str], max_len: int, unk_piece: str, word: str):
    """Pieces of one whitespace-free word; `_segmenter` caches it per word and vocabulary."""
    stream = WORD_MARKER + word
    match = _longest_match(stream, 0, entries, max_len)
    if match is None:
        stream = word  # no marked match: drop the boundary marker
        match = _longest_match(stream, 0, entries, max_len)
    pieces: list[str] = []
    pos = 0
    while pos < len(stream):
        if pos:
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
    """Load a vocabulary file: one piece per line (`\\n` or `\\r\\n`), optional `#unk=<piece>` header.

    Empty lines are skipped; a piece, or a header's unk piece, that is not
    one of `SubwordVocab` fails at its `path:line`.
    """
    unk_piece = DEFAULT_UNK_PIECE
    entries: set[str] = set()
    for lineno, line in read_lines(path, "vocabulary"):
        line = line.rstrip("\r\n")
        try:
            if lineno == 1 and line.startswith("#unk="):
                unk_piece = _check_piece(line[len("#unk=") :], unk=True)
            elif line:
                entries.add(_check_piece(line))
        except ValueError as exc:
            raise CorpusFormatError(f"invalid vocabulary: {exc}", str(path), lineno) from None
    if not entries:
        raise CorpusFormatError("vocabulary file contains no pieces", str(path))
    return SubwordVocab(entries=frozenset(entries), unk_piece=unk_piece)
