"""The contract of the package's value types: how each is built, compared,
hashed, printed and pickled, and that the frozen ones refuse assignment.
README promises values are safe to share across threads or processes, and
solver tables key on Graph and ForbiddenFamily, so none of this may drift
with how the classes are written."""

import pickle

import pytest

from isogame import (
    CheckKind,
    CheckReport,
    ForbiddenFamily,
    GameResult,
    Graph,
    IsolationCertificate,
    MarkState,
    complete_graph,
    cycle_graph,
    path_graph,
)

C6 = (34, 5, 10, 20, 40, 17)
P3 = (2, 5, 2)


def _round_trips(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value)
        assert back == value
        assert repr(back) == repr(value)


def test_graph_contract():
    g = Graph(6, C6, "cycle:6")
    assert g == Graph(n=6, adj=C6, label="cycle:6") == cycle_graph(6)
    # the label is a name, not part of the graph
    assert Graph(3, P3, "x") == Graph(3, P3)
    assert hash(Graph(3, P3, "x")) == hash(Graph(3, P3))
    assert Graph(3, P3) != Graph(3, (2, 1, 0))
    assert Graph(3, P3) != (3, P3)
    assert g.label == "cycle:6"
    assert g.closed == tuple(a | 1 << v for v, a in enumerate(C6))
    assert repr(g) == "Graph(n=6, adj=(34, 5, 10, 20, 40, 17), label='cycle:6')"
    assert repr(Graph(3, P3)) == "Graph(n=3, adj=(2, 5, 2), label=None)"
    _round_trips(g)
    back = pickle.loads(pickle.dumps(g))
    assert back.label == "cycle:6" and back.closed == g.closed
    for name in ("n", "adj", "label", "closed"):
        with pytest.raises(AttributeError):
            setattr(g, name, getattr(g, name))
        with pytest.raises(AttributeError):
            delattr(g, name)


def test_forbidden_family_contract():
    k2 = complete_graph(2)
    fam = ForbiddenFamily((k2,), "K2")
    assert fam == ForbiddenFamily(patterns=(k2,), tag="K2")
    assert hash(fam) == hash(ForbiddenFamily((Graph(2, (2, 1)),), "K2"))
    assert fam != ForbiddenFamily((k2,), "k2")
    assert fam.mode == "edge"
    assert repr(fam) == (
        "ForbiddenFamily(patterns=(Graph(n=2, adj=(2, 1), label='complete:2'),), tag='K2')"
    )
    _round_trips(fam)
    assert pickle.loads(pickle.dumps(fam)).mode == "edge"
    for name in ("patterns", "tag", "mode"):
        with pytest.raises(AttributeError):
            setattr(fam, name, getattr(fam, name))


def test_mark_state_contract():
    g = cycle_graph(6)
    state = MarkState(g, 3)
    assert state == MarkState(graph=g, marked=3)
    assert hash(state) == hash(MarkState(Graph(6, C6), 3))
    assert state != MarkState(g, 7)
    assert state.unmarked == 60 and not state.is_terminal
    assert repr(state) == (
        "MarkState(graph=Graph(n=6, adj=(34, 5, 10, 20, 40, 17), label='cycle:6'), marked=3)"
    )
    _round_trips(state)
    with pytest.raises(AttributeError):
        state.marked = 0


def test_game_result_contract():
    result = GameResult(3, 0, (0, 1, 2))
    assert result == GameResult(value=3, best_move=0, principal_line=(0, 1, 2))
    assert hash(result) == hash(GameResult(3, 0, (0, 1, 2)))
    assert result != GameResult(3, 1, (1, 0, 2))
    assert repr(result) == "GameResult(value=3, best_move=0, principal_line=(0, 1, 2))"
    assert repr(GameResult(0, None, ())) == "GameResult(value=0, best_move=None, principal_line=())"
    _round_trips(result)
    with pytest.raises(AttributeError):
        result.value = 4


def test_isolation_certificate_contract():
    cert = IsolationCertificate((0, 2), 2)
    assert cert == IsolationCertificate(witness=(0, 2), size=2)
    assert hash(cert) == hash(IsolationCertificate((0, 2), 2))
    assert cert != IsolationCertificate((0, 3), 2)
    assert repr(cert) == "IsolationCertificate(witness=(0, 2), size=2)"
    _round_trips(cert)
    with pytest.raises(AttributeError):
        cert.size = 1


def test_check_report_contract():
    report = CheckReport(CheckKind.SANDWICH, 1, [], [], 0.5, {"n_max": 3})
    assert report == CheckReport(
        kind=CheckKind.SANDWICH, instances=1, violations=[], extremal=[],
        wall_time_s=0.5, params={"n_max": 3}, rows=[], metadata={},
    )
    assert report != CheckReport(CheckKind.SANDWICH, 2, [], [], 0.5, {"n_max": 3})
    assert repr(report) == (
        "CheckReport(kind=<CheckKind.SANDWICH: 'sandwich'>, instances=1, violations=[], "
        "extremal=[], wall_time_s=0.5, params={'n_max': 3}, rows=[], metadata={})"
    )
    # each report gets its own rows and metadata
    other = CheckReport(CheckKind.SANDWICH, 1, [], [], 0.5, {})
    assert report.rows is not other.rows and report.metadata is not other.metadata
    # a report is mutable, so it is not hashable
    with pytest.raises(TypeError):
        hash(report)
    report.instances = 2
    assert report.instances == 2
    _round_trips(report)


def test_value_types_share_across_processes_as_table_keys():
    # a table keyed on (graph, family) in one process finds its entries
    # after a round trip through pickle, labels and all
    table = {(path_graph(3), ForbiddenFamily((complete_graph(2),), "K2")): 1}
    assert pickle.loads(pickle.dumps(table)) == table
