import json
import random

import pytest


@pytest.fixture
def rng():
    return random.Random(20240805)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


@pytest.fixture
def jsonl_writer():
    return write_jsonl
