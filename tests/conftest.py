import sys

import pytest


def _clear_memo():
    # empty the boundary-search memo of `corridor_math`, if it is loaded; importing
    # nothing here keeps the tests that watch which modules load
    corridor_math = sys.modules.get("corridor_pension.corridor_math")
    if corridor_math is not None:
        for memo in (corridor_math._admissible, corridor_math._grid_rows, corridor_math._search):
            memo.cache_clear()


@pytest.fixture(autouse=True)
def cold_memo():
    """Start every test on an empty memo, so that what a test counts does not
    depend on which tests ran before it; a test may call the returned function
    to empty it again."""
    _clear_memo()
    return _clear_memo
