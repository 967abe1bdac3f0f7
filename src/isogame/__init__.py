"""Exact solver and verification lab for isolation games on graphs."""

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
)
from .oracle import (
    IsolationCertificate,
    is_isolating,
    isolation_number,
    naive_best_moves,
    naive_game_value,
    random_playout,
)
from .harness import (
    CheckKind,
    CheckReport,
    conjecture_sweep,
    path_table,
    run_check,
)

__version__ = "0.1.0"
