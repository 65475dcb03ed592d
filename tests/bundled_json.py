"""The bundled case files as plain JSON, for tests that edit a case before
running it; each call reads the file afresh, so edits never leak."""

import os

from padic_serre.casefile import CASES_DIR
from padic_serre.errors import read_json


def case_json(name: str):
    return read_json(os.path.join(CASES_DIR, f"{name}.json"))
