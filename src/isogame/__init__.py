"""Exact solver and verification lab for isolation games on graphs."""

from types import ModuleType as _ModuleType

from .errors import (
    BadEdge,
    BadSpec,
    BudgetExceeded,
    IllegalMove,
    IsolationGameError,
    MalformedGraph6,
    OrderTooLarge,
    PatternTooLarge,
    StateSpaceBudgetExceeded,
    TerminalState,
)
from .graph import (
    MAX_ORDER,
    Graph,
    as_mask,
    build_graph,
    closed_neighborhood,
    components,
    disjoint_union,
    encode_graph6,
    is_connected,
    iter_mask,
    mask_list,
    mask_of,
    parse_graph6,
)
from .enumeration import (
    all_trees,
    are_isomorphic,
    canonical_form,
    enumerate_connected,
    tree_classes,
)
from .families import (
    complete_graph,
    cycle_graph,
    f_triangles,
    g_h,
    g_star,
    g_triangles,
    h_graph,
    iter_family,
    make_family,
    path_graph,
    star_graph,
    vertex_name_to_index,
)
from .rules import (
    ForbiddenFamily,
    MarkState,
    apply_move,
    close_marks,
    contains_pattern,
    initial_closure,
    is_forbidden_component,
    is_playable,
    parse_forbidden,
    playable,
    single_edge_family,
    single_vertex_family,
    three_path_family,
    updated_marks,
)
from .solver import (
    DEFAULT_MEMO_CAP,
    GameResult,
    Mover,
    optimal_moves,
    result_record,
    solve,
    solve_both,
    solve_values,
)

__version__ = "0.1.0"

#: The check harness's and the oracle's names, each imported from its
#: module on first access, so that a solve loads neither module (nor what
#: they import).
_LAZY = {
    "IsolationCertificate": "oracle",
    "is_isolating": "oracle",
    "isolation_number": "oracle",
    "naive_best_moves": "oracle",
    "naive_game_value": "oracle",
    "random_playout": "oracle",
    "CheckKind": "harness",
    "CheckReport": "harness",
    "conjecture_sweep": "harness",
    "path_table": "harness",
    "run_check": "harness",
}

# every public name: the solver core's, bound above, then the lazy ones
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
