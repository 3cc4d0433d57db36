import numpy as np
import pytest

import elitopt.fem as fem
from elitopt.fem import (
    Material,
    ModelError,
    TrussModel,
    TrussTopology,
    assemble_blocks,
    assemble_stiffness,
    displacement_violation,
    frequency_violations,
    lumped_masses,
    natural_frequencies,
    solve_static,
    stress_violations,
)
from elitopt.problems import load_design
from oracles import (
    Mechanism,
    dense_static,
    element_stiffness,
    full_stiffness,
    random_stable_truss,
    solve_static_oracle,
    thin_truss,
)

STEEL = Material(young_modulus=210e9, density=7850.0)


def bar_model(load_x=0.0, area=1e-4, length=1.0):
    """One horizontal bar, left end pinned, right end on an x roller, as a
    stack of one."""
    topology = TrussTopology(
        2,
        members=np.array([[0, 1]]),
        material=STEEL,
        fixed=np.array([[True, True], [False, True]]),
        loads=np.array([[0.0, 0.0], [load_x, 0.0]]),
    )
    return TrussModel(np.array([[[0.0, 0.0], [length, 0.0]]]), np.array([[area]]), topology)


def random_model(rng, n_nodes):
    """A ``random_stable_truss`` on its own topology, as a stack of one."""
    nodes, members, areas, fixed, loads = random_stable_truss(rng, n_nodes)
    topology = TrussTopology(n_nodes, members, STEEL, fixed, loads)
    return TrussModel(nodes[None], areas[None], topology)


class TestElementStiffness:
    def test_horizontal_bar_pattern(self):
        k = element_stiffness([0.0, 0.0], [1.0, 0.0], area=1.0, young_modulus=1.0)
        expect = np.zeros((4, 4))
        expect[np.ix_([0, 2], [0, 2])] = [[1.0, -1.0], [-1.0, 1.0]]
        assert np.allclose(k, expect)

    def test_vertical_bar_pattern(self):
        k = element_stiffness([0.0, 0.0], [0.0, 2.0], area=2.0, young_modulus=1.0)
        expect = np.zeros((4, 4))
        expect[np.ix_([1, 3], [1, 3])] = [[1.0, -1.0], [-1.0, 1.0]]
        assert np.allclose(k, expect)

    def test_diagonal_bar_all_couplings(self):
        # 45 degree bar with EA/L = 2 gives unit magnitude everywhere
        L = np.sqrt(2.0)
        k = element_stiffness([0.0, 0.0], [1.0, 1.0], area=L, young_modulus=2.0)
        assert np.allclose(np.abs(k), 1.0)
        assert np.allclose(k, k.T)

    def test_rigid_translation_in_nullspace(self):
        k = element_stiffness([0.3, 0.7], [1.9, -0.4], 1e-4, 210e9)
        assert np.allclose(k @ np.array([1.0, 0.0, 1.0, 0.0]), 0.0)
        assert np.allclose(k @ np.array([0.0, 1.0, 0.0, 1.0]), 0.0)

    def test_zero_length_rejected(self):
        with pytest.raises(ModelError):
            element_stiffness([1.0, 1.0], [1.0, 1.0], 1.0, 1.0)


class TestAssembly:
    def test_matches_elementwise_sum(self, rng):
        model = random_model(rng, 4)
        free = model.topology.free
        K = assemble_stiffness(model)[0]
        expect = full_stiffness(model)[np.ix_(free, free)]
        assert np.allclose(K, expect, rtol=1e-12, atol=0.0)

    def test_symmetric(self, rng):
        model = random_model(rng, 5)
        K = assemble_stiffness(model)[0]
        assert np.allclose(K, K.T)

    def test_free_dofs(self):
        model = bar_model()
        assert list(model.topology.free) == [2]

    def test_sums_in_member_order_like_add_at(self, rng):
        # the per-member blocks scattered into the full matrix with
        # np.add.at, entry by entry in member order, then restricted to the
        # free DOFs: the bincount scatter must agree bit for bit
        for n_nodes in (4, 5, 7):
            nodes, members, areas, fixed, loads = random_stable_truss(
                rng, n_nodes)
            fixed[3] = [True, False]
            topology = TrussTopology(n_nodes, members, STEEL, fixed, loads)
            model = TrussModel(nodes[None], areas[None], topology)
            d = nodes[members[:, 1]] - nodes[members[:, 0]]
            lengths = np.linalg.norm(d, axis=1)
            v = np.column_stack([d / lengths[:, None], -d / lengths[:, None]])
            k = STEEL.young_modulus * areas / lengths
            blocks = k[:, None, None] * v[:, :, None] * v[:, None, :]
            a, b = members[:, 0], members[:, 1]
            dofs = np.column_stack([2 * a, 2 * a + 1, 2 * b, 2 * b + 1])
            full = np.zeros((2 * n_nodes, 2 * n_nodes))
            np.add.at(full, (np.repeat(dofs, 4, axis=1), np.tile(dofs, (1, 4))),
                      blocks.reshape(-1, 16))
            free = topology.free
            assert np.array_equal(assemble_stiffness(model)[0],
                                  full[np.ix_(free, free)])

    def test_free_stiffness_assembled_once(self, monkeypatch):
        # the static solve assembles only its blocks, the modal analysis
        # the dense free stiffness, once per call
        calls = []
        assemble, blocks = fem.assemble_stiffness, fem.assemble_blocks

        def counting(model, out=None):
            calls.append(("dense", model))
            return assemble(model, out=out)

        def counting_blocks(model, out=None):
            calls.append(("blocks", model))
            return blocks(model, out=out)

        monkeypatch.setattr(fem, "assemble_stiffness", counting)
        monkeypatch.setattr(fem, "assemble_blocks", counting_blocks)
        topology = TrussTopology(
            3,
            members=np.array([[0, 1], [1, 2], [0, 2]]),
            material=STEEL,
            fixed=np.array([[True, True], [False, True], [True, False]]),
            loads=np.array([[0.0, 0.0], [1e3, 0.0], [0.0, 0.0]]),
        )
        model = TrussModel(
            np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]), np.full((1, 3), 1e-4), topology
        )
        solve_static(model)
        assert calls == [("blocks", model)]
        natural_frequencies(model)
        assert calls == [("blocks", model), ("dense", model)]


class TestSolveStatic:
    def test_axial_bar_textbook_values(self):
        # u = PL / EA and sigma = P / A, exact for a single bar
        model = bar_model(load_x=21e3)
        res = solve_static(model)
        assert res.displacements[0, 1, 0] == pytest.approx(1e-3, rel=1e-12)
        assert res.stresses[0, 0] == pytest.approx(210e6, rel=1e-12)

    def test_compression_is_negative(self):
        res = solve_static(bar_model(load_x=-21e3))
        assert res.stresses[0, 0] == pytest.approx(-210e6, rel=1e-12)

    def test_zero_loads_zero_response(self):
        res = solve_static(bar_model(load_x=0.0))
        assert np.all(res.displacements == 0.0)
        assert np.all(res.stresses == 0.0)

    def test_restrained_dofs_stay_zero(self, rng):
        model = random_model(rng, 5)
        res = solve_static(model)
        assert np.all(res.displacements[0][model.topology.fixed] == 0.0)

    def test_against_penalty_oracle(self, rng):
        for n_nodes in (3, 4, 5, 6):
            for _ in range(3):
                model = random_model(rng, n_nodes)
                res = solve_static(model)
                u_ref, sigma_ref = solve_static_oracle(model)
                scale_u = max(1.0, float(np.abs(u_ref).max()))
                scale_s = max(1.0, float(np.abs(sigma_ref).max()))
                assert np.allclose(res.displacements[0].ravel(), u_ref,
                                   atol=1e-9 * scale_u)
                assert np.allclose(res.stresses[0], sigma_ref,
                                   atol=1e-9 * scale_s)

    def test_symmetric_three_bar(self):
        topology = TrussTopology(
            4,
            members=np.array([[0, 1], [0, 2], [0, 3]]),
            material=STEEL,
            fixed=np.array([[False, False], [True, True], [True, True],
                            [True, True]]),
            loads=np.array([[0.0, -1e4], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        )
        model = TrussModel(
            np.array([[[0.0, 0.0], [-1.0, 1.0], [0.0, 1.0], [1.0, 1.0]]]),
            np.array([[1e-4, 1e-4, 1e-4]]),
            topology,
        )
        res = solve_static(model)
        assert res.displacements[0, 0, 0] == pytest.approx(0.0, abs=1e-15)
        assert res.stresses[0, 0] == pytest.approx(res.stresses[0, 2], rel=1e-12)

    def test_mechanism_detected(self):
        # two collinear bars: the middle node has no transverse stiffness
        topology = TrussTopology(
            3,
            members=np.array([[0, 1], [1, 2]]),
            material=STEEL,
            fixed=np.array([[True, True], [False, False], [True, True]]),
        )
        model = TrussModel(
            np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]]),
            np.array([[1e-4, 1e-4]]),
            topology,
        )
        res = solve_static(model)
        # the free displacements, and so every stress, come out NaN
        assert np.isnan(res.displacements[0][~topology.fixed]).all()
        assert np.all(res.displacements[0][topology.fixed] == 0.0)
        assert np.isnan(res.stresses).all()


class TestMassAndWeight:
    def make_two_bar(self):
        topology = TrussTopology(
            3,
            members=np.array([[0, 1], [1, 2]]),
            material=Material(young_modulus=1e9, density=1000.0),
            fixed=np.array([[True, True], [False, False], [True, True]]),
            masses=np.array([1.0, 2.0, 3.0]),
        )
        return TrussModel(
            np.array([[[0.0, 0.0], [2.0, 0.0], [2.0, 1.5]]]),
            np.array([[0.01, 0.02]]),
            topology,
        )

    def test_member_lengths(self):
        model = self.make_two_bar()
        assert np.allclose(model.lengths[0], [2.0, 1.5])

    def test_lumped_masses_tributary_split(self):
        # bar masses 20 and 30 kg split half to each end node
        model = self.make_two_bar()
        assert np.allclose(lumped_masses(model)[0], [11.0, 27.0, 18.0])

    def test_lumped_masses_add_in_member_order(self, rng):
        nodes, members, areas, fixed, _ = random_stable_truss(rng, 6)
        masses = rng.uniform(0.0, 50.0, size=6)
        topology = TrussTopology(6, members, STEEL, fixed, masses=masses)
        model = TrussModel(nodes[None], areas[None], topology)
        expect = masses.copy()
        tributary = 0.5 * STEEL.density * areas * np.linalg.norm(
            nodes[members[:, 1]] - nodes[members[:, 0]], axis=1)
        np.add.at(expect, members[:, 0], tributary)
        np.add.at(expect, members[:, 1], tributary)
        assert np.array_equal(lumped_masses(model)[0], expect)


class TestFrequencies:
    def single_dof_model(self, mass=1.0):
        # axial stiffness k = EA/L = 1e6 N/m against a pure point mass
        topology = TrussTopology(
            2,
            members=np.array([[0, 1]]),
            material=Material(young_modulus=1e11, density=0.0),
            fixed=np.array([[True, True], [False, True]]),
            masses=np.array([0.0, mass]),
        )
        return TrussModel(np.array([[[0.0, 0.0], [1.0, 0.0]]]), np.array([[1e-5]]), topology)

    def test_single_dof_oscillator(self):
        freqs = natural_frequencies(self.single_dof_model())[0]
        expect = np.sqrt(1e6) / (2.0 * np.pi)
        assert freqs.size == 1
        assert freqs[0] == pytest.approx(expect, rel=1e-12)
        assert freqs[0] == pytest.approx(159.15494309189535, rel=1e-12)

    def test_mass_doubling_scales_frequency(self):
        f1 = natural_frequencies(self.single_dof_model(mass=1.0))[0, 0]
        f2 = natural_frequencies(self.single_dof_model(mass=2.0))[0, 0]
        assert f2 == pytest.approx(f1 / np.sqrt(2.0), rel=1e-12)

    def test_area_scaling_invariance(self, rng):
        # with structural mass only, K and M both scale linearly in area
        nodes, members, areas, fixed, _ = random_stable_truss(rng, 5)
        topology = TrussTopology(5, members, STEEL, fixed)
        base = TrussModel(nodes[None], areas[None], topology)
        scaled = TrussModel(nodes[None], 3.7 * areas[None], topology)
        f_base = natural_frequencies(base)
        f_scaled = natural_frequencies(scaled)
        assert np.allclose(f_scaled, f_base, rtol=1e-9)

    def test_ascending_order(self, rng):
        model = random_model(rng, 6)
        freqs = natural_frequencies(model)[0]
        assert np.all(np.diff(freqs) >= 0)

    def test_one_frequency_per_free_dof(self, rng):
        model = random_model(rng, 5)
        assert natural_frequencies(model).shape == (1, model.topology.free.size)

    def test_symmetrized_in_place_gives_the_fresh_bits(self, rng):
        # truss37 with its third row flattened onto the lower chord, which
        # leaves no vertical stiffness: a mechanism
        design = load_design("truss37")
        coords, areas = design.expand(design.search_space().sample(4, rng))
        coords[2, 11:] = coords[2, 1:10] + [0.5, 0.0]
        model = TrussModel(coords, areas, design.topology)
        free = design.topology.free
        inv_sqrt = 1.0 / np.sqrt(lumped_masses(model)[:, free // 2])
        A = assemble_stiffness(model) * inv_sqrt[:, :, None] * inv_sqrt[:, None, :]
        lams = np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, 1, 2)))
        tol = 1e-8 * np.maximum(1.0, np.abs(lams).max(axis=1))
        lams[lams[:, 0] <= tol] = np.nan
        expect = np.sqrt(lams) / (2.0 * np.pi)
        freqs = natural_frequencies(model)
        assert np.isnan(freqs).all(axis=1).tolist() == [False, False, True, False]
        assert freqs.tobytes() == expect.tobytes()

    def test_massless_free_dof_rejected(self):
        model = self.single_dof_model(mass=0.0)
        with pytest.raises(ModelError, match="mass"):
            natural_frequencies(model)


class TestViolationHelpers:
    def test_stress_at_limit(self):
        assert stress_violations(np.array([240e6]), 240e6)[0] == 0.0

    def test_stress_over_limit(self):
        v = stress_violations(np.array([300e6, -300e6]), 240e6)
        assert np.allclose(v, 0.25)

    def test_stress_limit_validation(self):
        with pytest.raises(ValueError):
            stress_violations(np.array([1.0]), 0.0)

    def test_displacement(self):
        assert displacement_violation(0.5, 1.0) == 0.0
        assert displacement_violation(-1.5, 1.0) == pytest.approx(0.5)

    def test_displacement_elementwise(self):
        values = np.array([0.5, -1.5, 2.0, -0.2, 1.4])
        v = displacement_violation(values, 1.4)
        assert list(v) == [max(0.0, abs(u) / 1.4 - 1.0) for u in values]

    def test_frequency_lower_bounds(self):
        v = frequency_violations(np.array([20.0, 30.0, 90.0]),
                                 np.array([20.0, 40.0, 60.0]))
        assert v[0] == 0.0
        assert v[1] == pytest.approx(0.25)
        assert v[2] == 0.0

    def test_frequency_bound_validation(self):
        with pytest.raises(ValueError):
            frequency_violations(np.array([5.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            frequency_violations(np.array([5.0]), np.array([1.0, 2.0]))


class TestModelValidation:
    """The topology checks what no design changes, once; the model checks
    what a design changes."""

    def build(self, nodes=((0.0, 0.0), (1.0, 0.0)), areas=(1e-4,), **topology):
        kwargs = dict(
            n_nodes=2,
            members=np.array([[0, 1]]),
            material=STEEL,
            fixed=np.array([[True, True], [False, True]]),
        )
        kwargs.update(topology)
        return TrussModel(np.array([nodes]), np.array([areas]), TrussTopology(**kwargs))

    def test_valid_base(self):
        self.build()

    def test_member_index_out_of_range(self):
        with pytest.raises(ModelError):
            self.build(members=np.array([[0, 2]]))

    def test_degenerate_member(self):
        with pytest.raises(ModelError):
            self.build(members=np.array([[1, 1]]))

    def test_nonpositive_area(self):
        with pytest.raises(ModelError):
            self.build(areas=[0.0])

    def test_area_count_mismatch(self):
        with pytest.raises(ModelError):
            self.build(areas=[1e-4, 1e-4])

    def test_insufficient_restraints(self):
        with pytest.raises(ModelError):
            self.build(fixed=np.array([[True, True], [False, False]]))

    def test_zero_length_member(self):
        with pytest.raises(ModelError):
            self.build(nodes=np.zeros((2, 2)))

    def test_negative_mass(self):
        with pytest.raises(ModelError):
            self.build(masses=np.array([0.0, -1.0]))

    def test_bad_load_shape(self):
        with pytest.raises(ModelError):
            self.build(loads=np.array([[0.0, 0.0]]))

    def test_material_validation(self):
        with pytest.raises(ModelError):
            Material(young_modulus=0.0, density=1.0)
        with pytest.raises(ModelError):
            Material(young_modulus=1.0, density=-1.0)

    @pytest.mark.parametrize("young_modulus, density", [
        (np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf),
    ])
    def test_non_finite_material_rejected(self, young_modulus, density):
        with pytest.raises(ModelError, match="finite"):
            Material(young_modulus=young_modulus, density=density)

    @pytest.mark.parametrize("field, value", [
        ("loads", np.array([[0.0, 0.0], [np.nan, 0.0]])),
        ("masses", np.array([0.0, np.inf])),
        ("masses", np.array([np.nan, 0.0])),
    ])
    def test_non_finite_loads_and_masses_rejected(self, field, value):
        with pytest.raises(ModelError, match="finite"):
            self.build(**{field: value})


class TestModelOnTopology:
    def topology(self):
        return TrussTopology(
            2, np.array([[0, 1]]), STEEL, np.array([[True, True], [False, True]]),
            loads=np.array([[0.0, 0.0], [21e3, 0.0]]),
        )

    def test_checks_what_the_design_changes(self):
        topo = self.topology()
        with pytest.raises(ModelError, match="areas"):
            TrussModel(np.array([[[0.0, 0.0], [1.0, 0.0]]]),
                       areas=np.array([[0.0]]), topology=topo)
        with pytest.raises(ModelError, match="zero-length"):
            TrussModel(np.zeros((1, 2, 2)), areas=np.array([[1e-4]]), topology=topo)
        with pytest.raises(ModelError, match="node count"):
            TrussModel(np.zeros((1, 3, 2)), areas=np.array([[1e-4]]), topology=topo)

    def test_takes_the_member_vectors_it_is_given(self, rng):
        design = load_design("forth")
        coords, areas = design.expand(design.search_space().sample(7, rng))
        computed = TrussModel(coords, areas, design.topology)
        vectors, lengths = fem.member_vectors(coords, design.topology)
        given = TrussModel(coords, areas, design.topology, geometry=(vectors, lengths))
        assert given.lengths is lengths
        assert given.lengths.tobytes() == computed.lengths.tobytes()
        assert given.cosines.tobytes() == computed.cosines.tobytes()
        fresh = analyses(computed)
        for key, value in analyses(given).items():
            assert value.tobytes() == fresh[key].tobytes(), key

    def test_checks_the_member_vectors_it_is_given(self):
        topo = self.topology()
        nodes = np.array([[[0.0, 0.0], [1.0, 0.0]]] * 2)
        areas = np.full((2, 1), 1e-4)
        vectors, lengths = fem.member_vectors(nodes, topo)
        for bad in ((vectors[:1], lengths), (vectors, lengths[:1]),
                    (vectors[..., :1], lengths), (vectors, lengths[:, 0])):
            with pytest.raises(ModelError, match="member vectors and lengths must be"):
                TrussModel(nodes, areas, topo, geometry=bad)
        for bad_lengths in (np.zeros((2, 1)), np.array([[1.0], [-1.0]])):
            with pytest.raises(ModelError, match="zero-length"):
                TrussModel(nodes, areas, topo, geometry=(vectors, bad_lengths))
        with pytest.raises(ModelError, match="areas"):
            TrussModel(nodes, np.zeros((2, 1)), topo, geometry=(vectors, lengths))

    def test_invariants_are_read_only_copies(self):
        fixed = np.array([[True, True], [False, True]])
        topo = TrussTopology(2, np.array([[0, 1]]), STEEL, fixed)
        fixed[1, 0] = True
        assert not topo.fixed[1, 0]
        with pytest.raises(ValueError):
            topo.loads[1, 0] = 1.0
        thin = thin_truss(5)[0]
        for name in ("order", "block_entries", "block_index", "block_padding",
                     "block_loads"):
            assert not getattr(thin, name).flags.writeable, name
            with pytest.raises(ValueError):
                getattr(thin, name)[0] = 1

    def test_topology_validation(self):
        with pytest.raises(ModelError):
            TrussTopology(2, np.array([[0, 2]]), STEEL, np.ones((2, 2), bool))
        with pytest.raises(ModelError):
            TrussTopology(2, np.array([[0, 1]]), STEEL,
                          np.array([[True, False], [False, False]]))
        with pytest.raises(ModelError, match="no free DOFs"):
            TrussTopology(2, np.array([[0, 1]]), STEEL, np.ones((2, 2), bool))


class TestStackedModel:
    """A stack of configurations on one topology is analyzed at once, and
    each configuration gets the same bits as when analyzed alone, in a stack
    of one.  The 5-node trusses are one block of their free DOFs in their
    own order, the thin truss many blocks."""

    def stack(self, rng, k=6):
        nodes, members, areas, fixed, loads = random_stable_truss(rng, 5)
        topo = TrussTopology(5, members, STEEL, fixed, loads,
                             masses=rng.uniform(0.0, 10.0, size=5))
        stacked_nodes = nodes + rng.normal(scale=0.05, size=(k, 5, 2))
        stacked_areas = areas * rng.uniform(0.5, 2.0, size=(k, len(members)))
        return topo, stacked_nodes, stacked_areas

    def test_each_configuration_as_if_alone(self, rng):
        topo, nodes, areas = self.stack(rng)
        assert topo.n_blocks == 1 and topo.block_size == topo.free.size
        assert np.array_equal(topo.order, topo.free)
        stacked = TrussModel(nodes, areas=areas, topology=topo)
        res = solve_static(stacked)
        freqs = natural_frequencies(stacked)
        for i in range(len(nodes)):
            one = TrussModel(nodes[i:i + 1], areas=areas[i:i + 1], topology=topo)
            alone = solve_static(one)
            assert res.displacements[i].tobytes() == alone.displacements[0].tobytes()
            assert res.stresses[i].tobytes() == alone.stresses[0].tobytes()
            assert np.array_equal(assemble_stiffness(stacked)[i],
                                  assemble_stiffness(one)[0])
            assert np.array_equal(lumped_masses(stacked)[i], lumped_masses(one)[0])
            assert freqs[i].tobytes() == natural_frequencies(one)[0].tobytes()

    def test_mechanisms_marked_per_configuration(self):
        topo = TrussTopology(
            3, np.array([[0, 1], [1, 2]]), STEEL,
            np.array([[True, True], [False, False], [True, True]]))
        # middle node off the line (stable) or on it (no transverse stiffness)
        nodes = np.array([[[0.0, 0.0], [1.0, y], [2.0, 0.0]]
                          for y in (0.5, 0.0, -0.3)])
        stacked = TrussModel(nodes, areas=np.full((3, 2), 1e-4), topology=topo)
        assert_marked_alone(solve_static, stacked, [False, True, False])

    def test_each_thin_configuration_as_if_alone(self, rng):
        topo, nodes, areas = thin_truss(10)
        assert topo.n_blocks >= fem.BANDED_MIN_BLOCKS
        nodes = nodes + rng.normal(scale=0.05, size=(6,) + nodes.shape)
        areas = areas * rng.uniform(0.5, 2.0, size=(6, areas.size))
        stacked = TrussModel(nodes, areas=areas, topology=topo)
        res = solve_static(stacked)
        blocks = assemble_blocks(stacked)
        for i in range(len(nodes)):
            one = TrussModel(nodes[i:i + 1], areas=areas[i:i + 1], topology=topo)
            alone = solve_static(one)
            assert res.displacements[i].tobytes() == alone.displacements[0].tobytes()
            assert res.stresses[i].tobytes() == alone.stresses[0].tobytes()
            assert blocks[i].tobytes() == assemble_blocks(one)[0].tobytes()

    def test_thin_mechanisms_marked_per_configuration(self):
        # the pendant node below the chord (stable) or on it (a mechanism)
        pendants = [(0.5, -0.5), (0.5, 0.0), (0.5, -0.2)]
        topo, nodes, areas = thin_truss(8, pendant=pendants[0])
        assert topo.n_blocks >= fem.BANDED_MIN_BLOCKS
        nodes = np.repeat(nodes[None], 3, axis=0)
        nodes[:, -1] = pendants
        stacked = TrussModel(nodes, areas=np.tile(areas, (3, 1)), topology=topo)
        assert_marked_alone(solve_static, stacked, [False, True, False])
        # the others are solved in the same pass, as they would be alone
        u, ok = fem._solve_blocks(stacked)
        assert ok.tolist() == [True, False, True]
        for i in (0, 2):
            one = TrussModel(nodes[i:i + 1], areas=areas[None], topology=topo)
            assert u[i].tobytes() == fem._solve_blocks(one)[0][0].tobytes()

    def test_modal_mechanism_marked_per_configuration(self, rng, monkeypatch):
        # a stiffness is never negative definite, so the second
        # configuration's is negated, in a stack or alone
        topo, nodes, areas = self.stack(rng, k=3)
        stacked = TrussModel(nodes, areas=areas, topology=topo)
        assemble = fem.assemble_stiffness

        def negated(model, out=None):
            K = assemble(model, out=out)
            K[(model.areas == areas[1]).all(axis=1)] *= -1.0
            return K

        monkeypatch.setattr(fem, "assemble_stiffness", negated)
        assert_marked_alone(natural_frequencies, stacked, [False, True, False])

    def test_areas_must_match_the_stack(self, rng):
        topo, nodes, areas = self.stack(rng)
        with pytest.raises(ModelError, match="areas"):
            TrussModel(nodes, areas=areas[:-1], topology=topo)

    def test_a_single_configuration_is_refused(self, rng):
        # a model is always a stack: one configuration is a stack of one
        topo, nodes, areas = self.stack(rng, k=1)
        TrussModel(nodes, areas, topo)
        for one_nodes, one_areas in ((nodes[0], areas[0]), (nodes[0], areas),
                                     (nodes, areas[0])):
            with pytest.raises(ModelError, match=r"\(k, n, 2\)|areas"):
                TrussModel(one_nodes, one_areas, topo)


def assert_marked_alone(analysis, model, mechanisms):
    """Each array ``analysis(model)`` returns is NaN throughout on the free
    DOFs and members of the rows that ``mechanisms`` marks, and each other
    row is byte-equal to that configuration analyzed alone."""
    result = analysis(model)
    parts = ((result,) if isinstance(result, np.ndarray)
             else (result.displacements[:, ~model.topology.fixed], result.stresses))
    for i, marked in enumerate(mechanisms):
        one = TrussModel(model.nodes[i:i + 1], model.areas[i:i + 1], model.topology)
        alone = analysis(one)
        alone = ((alone,) if isinstance(alone, np.ndarray)
                 else (alone.displacements[:, ~one.topology.fixed], alone.stresses))
        for part, part_alone in zip(parts, alone):
            if marked:
                assert np.isnan(part[i]).all() and np.isnan(part_alone).all()
            else:
                assert part[i].tobytes() == part_alone[0].tobytes()


def relative_error(value, reference):
    """Largest deviation of each configuration relative to its largest
    reference entry."""
    axes = tuple(range(1, reference.ndim))
    return np.max(np.abs(value - reference), axis=axes) / np.max(
        np.abs(reference), axis=axes)


def on_blocks(topo, K):
    """The dense free stiffness ``K`` (``(k, f, f)``) in the topology's
    ``order``, cut into the layout of :func:`assemble_blocks`."""
    b, nb = topo.block_size, topo.n_blocks
    where = np.searchsorted(topo.free, topo.order)
    P = np.zeros((len(K), nb * b, nb * b))
    P[:, : topo.free.size, : topo.free.size] = K[:, where][:, :, where]
    pad = np.arange(topo.free.size, nb * b)
    P[:, pad, pad] = 1.0
    tiles = P.reshape(len(K), nb, b, nb, b).transpose(0, 1, 3, 2, 4)
    rows = np.arange(nb)
    return np.concatenate([tiles[:, rows, rows], tiles[:, rows[1:], rows[:-1]]], axis=1)


class TestEliminationOrder:
    """The topology's reverse Cuthill-McKee order and the block layout of
    the free stiffness in it."""

    def test_path_graph_gets_band_one(self, rng):
        # a path whose vertices are numbered at random
        labels = rng.permutation(12)
        rows = np.concatenate([labels[:-1], labels[1:]])
        cols = np.concatenate([labels[1:], labels[:-1]])
        order = fem._reverse_cuthill_mckee(rows, cols, 12)
        rank = np.empty(12, dtype=int)
        rank[order] = np.arange(12)
        assert sorted(order) == list(range(12))
        assert np.abs(rank[rows] - rank[cols]).max() == 1

    @pytest.mark.parametrize("name", ["michell", "forth", "truss37", "thin"])
    def test_order_is_a_permutation_of_free(self, name):
        topo = thin_truss(10)[0] if name == "thin" else load_design(name).topology
        assert sorted(topo.order.tolist()) == topo.free.tolist()
        assert 1 <= topo.block_size <= topo.free.size
        assert topo.n_blocks == -(-topo.free.size // topo.block_size)

    def test_no_entry_outside_the_band(self, rng):
        for topo, nodes, areas in (thin_truss(10), thin_truss(7, pendant=(0.5, -0.5))):
            K = assemble_stiffness(TrussModel(nodes[None], areas[None], topo))[0]
            where = np.searchsorted(topo.free, topo.order)
            i, j = np.nonzero(K[np.ix_(where, where)])
            assert np.abs(i - j).max() <= topo.block_size

    def test_forth_band(self):
        # 114 free DOFs at a half-bandwidth of 7 in this order: 17 blocks
        topo = load_design("forth").topology
        assert topo.free.size == 114
        assert topo.block_size <= 7

    def test_blocks_hold_the_dense_entries_bit_for_bit(self, rng):
        topo, nodes, areas = thin_truss(7, pendant=(0.5, -0.5))
        # the last block is padded
        assert topo.free.size % topo.block_size
        nodes = nodes + rng.normal(scale=0.05, size=(4,) + nodes.shape)
        model = TrussModel(nodes, np.tile(areas, (4, 1)), topo)
        blocks = assemble_blocks(model)
        assert blocks.shape == (4, 2 * topo.n_blocks - 1) + (topo.block_size,) * 2
        assert np.array_equal(blocks, on_blocks(topo, assemble_stiffness(model)))

    def test_bundled_trusses_take_the_stated_path(self, monkeypatch, rng):
        # michell is one block of its 12 free DOFs in their own order,
        # forth 17 blocks of at most 7 in reverse Cuthill-McKee order
        michell = load_design("michell").topology
        assert (michell.n_blocks, michell.block_size) == (1, michell.free.size)
        assert np.array_equal(michell.order, michell.free)
        forth = load_design("forth").topology
        assert forth.n_blocks == 17 and not np.array_equal(forth.order, forth.free)
        # the static trusses eliminate blocks, truss37 only assembles the
        # dense stiffness for its modal analysis
        calls = {"blocks": 0, "dense": 0}
        solve_blocks, assemble = fem._solve_blocks, fem.assemble_stiffness

        def counting_blocks(model):
            calls["blocks"] += 1
            return solve_blocks(model)

        def counting_dense(model, out=None):
            calls["dense"] += 1
            return assemble(model, out=out)

        monkeypatch.setattr(fem, "_solve_blocks", counting_blocks)
        monkeypatch.setattr(fem, "assemble_stiffness", counting_dense)
        paths = (("michell", 1, 0), ("forth", 1, 0), ("truss37", 0, 1))
        for name, blocks, dense in paths:
            calls.update(blocks=0, dense=0)
            design = load_design(name)
            design.evaluate(design.search_space().sample(3, rng))
            assert (calls["blocks"] > 0, calls["dense"] > 0) == (blocks, dense), name


class TestBlockSolve:
    """The block elimination against the dense solve of ``oracles``."""

    def test_forth_populations_match_the_dense_reference(self, rng):
        design = load_design("forth")
        for k in (1, 7, 20):
            coords, areas = design.expand(design.search_space().sample(k, rng))
            model = TrussModel(coords, areas, design.topology)
            res = solve_static(model)
            u, stresses = dense_static(model)
            assert relative_error(res.displacements, u).max() <= 1e-9
            assert relative_error(res.stresses, stresses).max() <= 1e-9

    def test_thin_truss_matches_the_dense_reference(self, rng):
        topo, nodes, areas = thin_truss(12)
        nodes = nodes + rng.normal(scale=0.1, size=(5,) + nodes.shape)
        areas = areas * rng.uniform(0.2, 5.0, size=(5, areas.size))
        model = TrussModel(nodes, areas, topo)
        res = solve_static(model)
        u, stresses = dense_static(model)
        assert relative_error(res.displacements, u).max() <= 1e-9
        assert relative_error(res.stresses, stresses).max() <= 1e-9

    def test_single_configuration(self, rng):
        topo, nodes, areas = thin_truss(9)
        model = TrussModel(nodes[None], areas[None], topo)
        u, ok = fem._solve_blocks(model)
        assert u.shape == (1, topo.free.size) and ok.tolist() == [True]
        res = solve_static(model)
        ref_u, ref_stresses = dense_static(model)
        assert res.displacements.shape == ref_u.shape == (1,) + nodes.shape
        assert relative_error(res.displacements, ref_u)[0] <= 1e-9
        assert relative_error(res.stresses, ref_stresses)[0] <= 1e-9

    def test_one_free_dof(self):
        # the axial bar: one block of one DOF, checked and solved alone
        model = bar_model(load_x=21e3)
        topo = model.topology
        assert (topo.block_size, topo.n_blocks) == (1, 1)
        assert np.array_equal(topo.order, topo.free)
        u, ok = fem._solve_blocks(model)
        assert ok.tolist() == [True] and u[0].tolist() == pytest.approx([1e-3], rel=1e-12)
        stacked = TrussModel(np.repeat(model.nodes, 3, axis=0), np.full((3, 1), 1e-4), topo)
        u, ok = fem._solve_blocks(stacked)
        assert ok.tolist() == [True] * 3 and u.shape == (3, 1)

    def test_fewer_blocks_than_the_banded_path_needs(self, rng):
        # two panels: reverse Cuthill-McKee cuts the 7 free DOFs into 2
        # blocks, too few, so the topology takes one unpermuted block and
        # the static solve is the dense one, bit for bit
        topo, nodes, areas = thin_truss(2)
        assert topo.free.size == 7 and fem.BANDED_MIN_BLOCKS > 2
        assert (topo.n_blocks, topo.block_size) == (1, 7)
        assert np.array_equal(topo.order, topo.free)
        nodes = nodes + rng.normal(scale=0.05, size=(3,) + nodes.shape)
        model = TrussModel(nodes, np.tile(areas, (3, 1)), topo)
        u, ok = fem._solve_blocks(model)
        assert ok.all()
        ref, _ = dense_static(model)
        assert u.tobytes() == ref.reshape(3, -1)[:, topo.free].tobytes()

    def test_michell_is_never_permuted(self, rng):
        # criterion 6 holds on michell's dense arithmetic: one block in
        # free order gives the dense solve's bits
        design = load_design("michell")
        topo = design.topology
        assert np.array_equal(topo.order, topo.free)
        for k in (1, 7, 50):
            coords, areas = design.expand(design.search_space().sample(k, rng))
            model = TrussModel(coords, areas, topo)
            u, _ = dense_static(model)
            assert solve_static(model).displacements.tobytes() == u.tobytes()

    def test_mechanism_of_one_configuration(self):
        # the pendant on the chord makes a Schur complement singular
        topo, nodes, areas = thin_truss(8, pendant=(0.5, 0.0))
        model = TrussModel(nodes[None], areas[None], topo)
        assert_marked_alone(solve_static, model, [True])
        with pytest.raises(Mechanism) as info:
            dense_static(model)
        assert info.value.mechanisms.tolist() == [True]


def analyses(model):
    """Every array the public analyses return for ``model``, by name."""
    res = solve_static(model)
    return {"stiffness": assemble_stiffness(model), "blocks": assemble_blocks(model),
            "displacements": res.displacements, "stresses": res.stresses,
            "frequencies": natural_frequencies(model)}


class TestWorkArrays:
    """The analyses of a topology write into work arrays kept on it, reused
    from one call to the next; every result is what a topology that was
    never used before gives, and stays the caller's own."""

    @pytest.mark.parametrize("name", ["forth", "truss37", "michell"])
    def test_reused_topology_gives_fresh_bits(self, name, rng):
        design = load_design(name)
        for k in (50, 7, 1, 50):
            coords, areas = design.expand(design.search_space().sample(k, rng))
            used = analyses(TrussModel(coords, areas, design.topology))
            fresh = analyses(TrussModel(coords, areas, load_design(name).topology))
            for key, value in fresh.items():
                assert used[key].tobytes() == value.tobytes(), (k, key)

    def test_results_outlive_a_larger_analysis(self, rng):
        # the first analysis sizes the work arrays, so the last one writes
        # into the same memory as the second
        design = load_design("forth")
        space = design.search_space()
        analyses(TrussModel(*design.expand(space.sample(50, rng)), design.topology))
        earlier = analyses(TrussModel(*design.expand(space.sample(7, rng)), design.topology))
        kept = {key: value.copy() for key, value in earlier.items()}
        analyses(TrussModel(*design.expand(space.sample(50, rng)), design.topology))
        for key, value in kept.items():
            assert earlier[key].tobytes() == value.tobytes(), key

    @pytest.mark.parametrize("name", ["forth", "truss37", "michell"])
    def test_equal_or_smaller_stacks_allocate_nothing(self, name, rng):
        design = load_design(name)
        work = design.topology._work
        space = design.search_space()
        analyses(TrussModel(*design.expand(space.sample(50, rng)), design.topology))
        held = {**work._arrays, **work._indices}
        assert {"member terms", "blocks", "stiffness"} <= set(held)
        # gathers take along the member axis; only the scatters keep a
        # shifted index
        assert set(work._indices) == {"free scatter", "blocks scatter", "masses"}
        for k in (50, 7, 1):
            analyses(TrussModel(*design.expand(space.sample(k, rng)), design.topology))
            now = {**work._arrays, **work._indices}
            assert now.keys() == held.keys()
            assert all(now[key] is held[key] for key in held), k

    @pytest.mark.parametrize("name", ["forth", "truss37", "michell"])
    def test_one_copy_of_each_stiffness(self, name, rng):
        # the block elimination holds the right-hand side of one block row,
        # and the modal analysis symmetrizes the stiffness in place
        design = load_design(name)
        topo, work = design.topology, design.topology._work
        space = design.search_space()
        analyses(TrussModel(*design.expand(space.sample(50, rng)), topo))
        f = topo.free.size
        dense = [key for key, a in work._arrays.items() if a.shape[1:] == (f, f)]
        assert dense == ["stiffness"]
        if topo.n_blocks > 1:
            b = topo.block_size
            assert work._arrays["right-hand side"].shape == (50, b, b + 1)
        else:
            assert "right-hand side" not in work._arrays

    def test_out_must_fit_the_stack(self, rng):
        model = random_model(rng, 5)
        f = model.topology.free.size
        out = np.empty((1, f, f))
        assert assemble_stiffness(model, out=out) is out
        assert out.tobytes() == assemble_stiffness(model).tobytes()
        for out in (np.empty((2, f, f)), np.empty((1, f, f), dtype=np.float32),
                    np.empty((1, f, f + 1))[..., :f]):
            with pytest.raises(ValueError, match="out must be"):
                assemble_stiffness(model, out=out)
