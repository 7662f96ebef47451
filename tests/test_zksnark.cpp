// Tests for the R1CS layer, circuit gadgets, the RLN circuit, and the
// simulated Groth16 backend: completeness, soundness against tampering,
// and the structural properties the benches rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <latch>
#include <thread>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "common/serde.hpp"
#include "hash/poseidon.hpp"
#include "hash/sha256.hpp"
#include "merkle/merkle_tree.hpp"
#include "sss/shamir.hpp"
#include "zksnark/gadgets.hpp"
#include "zksnark/rln_circuit.hpp"

namespace waku::zksnark {
namespace {

using ff::Fr;
using merkle::IncrementalMerkleTree;
using merkle::MerklePath;

TEST(LinearCombination, EvaluatesTerms) {
  // assignment: [1, 10, 20]
  const std::vector<Fr> s = {Fr::one(), Fr::from_u64(10), Fr::from_u64(20)};
  LinearCombination lc;
  lc.add_term(1, Fr::from_u64(2));
  lc.add_term(2, Fr::from_u64(3));
  lc.add_term(0, Fr::from_u64(5));
  EXPECT_EQ(lc.evaluate(s), Fr::from_u64(2 * 10 + 3 * 20 + 5));
}

TEST(LinearCombination, MergesDuplicateTerms) {
  LinearCombination lc;
  lc.add_term(3, Fr::from_u64(2));
  lc.add_term(3, Fr::from_u64(5));
  ASSERT_EQ(lc.terms().size(), 1u);
  EXPECT_EQ(lc.terms()[0].second, Fr::from_u64(7));
}

TEST(LinearCombination, CancellingTermsVanish) {
  LinearCombination lc;
  lc.add_term(2, Fr::from_u64(4));
  lc.add_term(2, Fr::from_u64(4).neg());
  EXPECT_TRUE(lc.empty());
}

TEST(LinearCombination, ArithmeticOps) {
  const std::vector<Fr> s = {Fr::one(), Fr::from_u64(3)};
  const auto a = LinearCombination::variable(1);
  const auto b = LinearCombination::constant(Fr::from_u64(10));
  EXPECT_EQ((a + b).evaluate(s), Fr::from_u64(13));
  EXPECT_EQ((b - a).evaluate(s), Fr::from_u64(7));
  EXPECT_EQ(a.scaled(Fr::from_u64(4)).evaluate(s), Fr::from_u64(12));
}

TEST(ConstraintSystem, PublicBeforePrivateEnforced) {
  ConstraintSystem cs;
  cs.allocate_public();
  cs.allocate_private();
  EXPECT_THROW(cs.allocate_public(), ContractViolation);
}

TEST(ConstraintSystem, SatisfactionCheck) {
  // x * y = z with x=3, y=4, z=12.
  ConstraintSystem cs;
  const VarIndex x = cs.allocate_public();
  const VarIndex y = cs.allocate_private();
  const VarIndex z = cs.allocate_private();
  cs.enforce(LinearCombination::variable(x), LinearCombination::variable(y),
             LinearCombination::variable(z), "xy=z");

  const std::vector<Fr> good = {Fr::one(), Fr::from_u64(3), Fr::from_u64(4),
                                Fr::from_u64(12)};
  EXPECT_TRUE(cs.is_satisfied(good));

  const std::vector<Fr> bad = {Fr::one(), Fr::from_u64(3), Fr::from_u64(4),
                               Fr::from_u64(13)};
  std::string where;
  EXPECT_FALSE(cs.is_satisfied(bad, &where));
  EXPECT_EQ(where, "xy=z");
}

TEST(ConstraintSystem, RejectsMalformedAssignment) {
  ConstraintSystem cs;
  cs.allocate_public();
  const std::vector<Fr> wrong_one = {Fr::from_u64(2), Fr::one()};
  EXPECT_FALSE(cs.is_satisfied(wrong_one));
  const std::vector<Fr> wrong_size = {Fr::one()};
  EXPECT_FALSE(cs.is_satisfied(wrong_size));
}

TEST(ConstraintSystem, DigestDistinguishesCircuits) {
  EXPECT_NE(rln_constraint_system(4).digest(),
            rln_constraint_system(5).digest());
  EXPECT_EQ(rln_constraint_system(4).digest(),
            rln_constraint_system(4).digest());
}

TEST(ConstraintSystem, SealingFreezesStructureAndKeepsDigest) {
  ConstraintSystem cs;
  const VarIndex x = cs.allocate_public();
  const VarIndex y = cs.allocate_private();
  cs.enforce(LinearCombination::variable(x), LinearCombination::variable(y),
             LinearCombination::variable(y), "xy=y");
  const Fr before = cs.digest();
  cs.seal();
  EXPECT_TRUE(cs.sealed());
  EXPECT_EQ(cs.digest(), before);
  EXPECT_THROW(cs.allocate_private(), ContractViolation);
  EXPECT_THROW(cs.enforce({}, {}, {}), ContractViolation);
  EXPECT_TRUE(rln_constraint_system(4).sealed());
}

// x * y = p ("prod"), p * p = q ("square"), q * 1 = r (no note) and
// x * x = sq ("prod" again), honestly assigned x=2, y=3: the flat store
// interns the repeated note and must still map each constraint to its own.
struct NotedSystem {
  ConstraintSystem cs;
  std::vector<Fr> honest;

  NotedSystem() {
    const VarIndex x = cs.allocate_public();
    const VarIndex y = cs.allocate_private();
    const VarIndex p = cs.allocate_private();
    const VarIndex q = cs.allocate_private();
    const VarIndex r = cs.allocate_private();
    const VarIndex sq = cs.allocate_private();
    const auto var = [](VarIndex v) { return LinearCombination::variable(v); };
    const auto one = LinearCombination::constant(Fr::one());
    cs.enforce(var(x), var(y), var(p), "prod");
    cs.enforce(var(p), var(p), var(q), "square");
    cs.enforce(var(q), one, var(r));
    cs.enforce(var(x), var(x), var(sq), "prod");
    for (std::uint64_t v : {1, 2, 3, 6, 36, 36, 4}) {
      honest.push_back(Fr::from_u64(v));
    }
  }

  // The first violation reported when variable `v` is bumped by one.
  [[nodiscard]] std::string violation_after_bumping(VarIndex v) const {
    std::vector<Fr> bad = honest;
    bad[v] += Fr::one();
    std::string where;
    EXPECT_FALSE(cs.is_satisfied(bad, &where));
    return where;
  }
};

TEST(ConstraintSystem, ViolationReportsItsOwnAnnotation) {
  const NotedSystem n;
  EXPECT_EQ(n.cs.num_constraints(), 4u);
  EXPECT_TRUE(n.cs.is_satisfied(n.honest));
  EXPECT_EQ(n.violation_after_bumping(3), "prod");    // p breaks constraint 0
  EXPECT_EQ(n.violation_after_bumping(4), "square");  // q: constraint 1 first
  EXPECT_EQ(n.violation_after_bumping(6), "prod");    // sq: constraint 3 only
}

TEST(ConstraintSystem, UnannotatedViolationSaysSo) {
  const NotedSystem n;
  EXPECT_EQ(n.violation_after_bumping(5), "<unannotated>");  // r: constraint 2
}

TEST(ConstraintSystem, DigestOfNotedSystemSurvivesSealing) {
  NotedSystem n;
  const Fr before = n.cs.digest();
  n.cs.seal();
  EXPECT_EQ(n.cs.digest(), before);
  EXPECT_EQ(n.violation_after_bumping(4), "square");
  EXPECT_EQ(n.violation_after_bumping(5), "<unannotated>");
}

TEST(ConstraintSystem, StreamedDigestIsSha256OfTheByteWriterEncoding) {
  // The digest is fed to SHA-256 field by field; it must equal the hash of
  // the whole encoding built in one ByteWriter: u64 variables | u64 public
  // | u64 constraints | per linear combination (a, b, c of each
  // constraint) u32 term count, then per term u32 var | 32-byte BE coeff.
  ConstraintSystem cs;
  const VarIndex x = cs.allocate_public();
  const VarIndex y = cs.allocate_private();
  const VarIndex z = cs.allocate_private();
  LinearCombination wide = LinearCombination::constant(Fr::from_u64(7));
  wide.add_term(x, Fr::from_u64(3)).add_term(z, Fr::from_u64(11).neg());
  const std::vector<std::array<LinearCombination, 3>> constraints = {
      {LinearCombination::variable(x), LinearCombination::variable(y),
       LinearCombination::variable(z)},
      {wide, LinearCombination::constant(Fr::one()), LinearCombination{}},
      {LinearCombination::variable(y, Fr::from_u64(3)), wide,
       LinearCombination::variable(x, Fr::from_u64(3))},
  };
  for (const auto& [a, b, c] : constraints) cs.enforce(a, b, c);

  ByteWriter w;
  w.write_u64(cs.num_variables());
  w.write_u64(cs.num_public());
  w.write_u64(cs.num_constraints());
  for (const auto& sides : constraints) {
    for (const LinearCombination& lc : sides) {
      w.write_u32(static_cast<std::uint32_t>(lc.terms().size()));
      for (const auto& [var, coeff] : lc.terms()) {
        w.write_u32(var);
        w.write_raw(coeff.to_bytes_be());
      }
    }
  }
  const Fr expected = Fr::from_bytes_reduce(hash::sha256_bytes(w.data()));
  EXPECT_EQ(cs.digest(), expected);
  cs.seal();
  EXPECT_EQ(cs.digest(), expected);
}

TEST(ConstraintSystem, Depth20DigestIsPinned) {
  EXPECT_EQ(ff::fr_to_hex(rln_constraint_system(20).digest()),
            "0x2fdf23dc2104ae762b874f5f18bc52df"
            "1322c4ba594a164910f09153d5fdbf4f");
}

TEST(CircuitBuilder, MulAddsOneConstraint) {
  CircuitBuilder b;
  const Wire x = b.witness(Fr::from_u64(6));
  const Wire y = b.witness(Fr::from_u64(7));
  const Wire z = b.mul(x, y);
  EXPECT_EQ(z.value, Fr::from_u64(42));
  EXPECT_EQ(b.cs().num_constraints(), 1u);
  EXPECT_TRUE(b.satisfied());
}

TEST(CircuitBuilder, LinearOpsAddNoConstraints) {
  CircuitBuilder b;
  const Wire x = b.witness(Fr::from_u64(6));
  const Wire y = b.witness(Fr::from_u64(7));
  const Wire s = b.add(x, y);
  const Wire d = b.sub(x, y);
  const Wire k = b.scale(x, Fr::from_u64(3));
  EXPECT_EQ(s.value, Fr::from_u64(13));
  EXPECT_EQ(d.value, Fr::from_u64(6) - Fr::from_u64(7));
  EXPECT_EQ(k.value, Fr::from_u64(18));
  EXPECT_EQ(b.cs().num_constraints(), 0u);
}

TEST(CircuitBuilder, AssertBooleanAcceptsBits) {
  CircuitBuilder b;
  b.assert_boolean(b.witness(Fr::zero()));
  b.assert_boolean(b.witness(Fr::one()));
  EXPECT_TRUE(b.satisfied());
}

TEST(CircuitBuilder, AssertBooleanRejectsNonBits) {
  CircuitBuilder b;
  b.assert_boolean(b.witness(Fr::from_u64(2)));
  EXPECT_FALSE(b.satisfied());
}

TEST(CircuitBuilder, SetPublicFillsOnlyPublicSlots) {
  CircuitBuilder b;
  const Wire x = b.public_input(Fr::zero());
  const Wire w = b.witness(Fr::from_u64(5));
  b.assert_equal(x, w);
  EXPECT_FALSE(b.satisfied());
  b.set_public(0, Fr::from_u64(5));
  EXPECT_EQ(b.assignment()[1], Fr::from_u64(5));
  EXPECT_TRUE(b.satisfied());
  EXPECT_THROW(b.set_public(1, Fr::one()), ContractViolation);
}

TEST(CircuitBuilder, ConditionalSwap) {
  CircuitBuilder b;
  const Wire l = b.witness(Fr::from_u64(10));
  const Wire r = b.witness(Fr::from_u64(20));
  const auto [a0, b0] = b.conditional_swap(b.witness(Fr::zero()), l, r);
  EXPECT_EQ(a0.value, Fr::from_u64(10));
  EXPECT_EQ(b0.value, Fr::from_u64(20));
  const auto [a1, b1] = b.conditional_swap(b.witness(Fr::one()), l, r);
  EXPECT_EQ(a1.value, Fr::from_u64(20));
  EXPECT_EQ(b1.value, Fr::from_u64(10));
  EXPECT_TRUE(b.satisfied());
}

// The gadget keeps the plain round structure; the native permutation uses
// sparse partial rounds. Every output lane must agree, at every width, on
// the zero state and 64 random states.
TEST(Gadgets, PoseidonMatchesNative) {
  Rng rng(211);
  for (std::size_t t = 2; t <= 5; ++t) {
    CircuitBuilder b;
    for (int trial = 0; trial <= 64; ++trial) {
      std::vector<Fr> native(t);
      if (trial > 0) {
        for (Fr& v : native) v = Fr::random(rng);
      }
      std::vector<Wire> wires;
      for (const Fr& v : native) wires.push_back(b.witness(v));
      poseidon_permute_gadget(b, wires);
      hash::poseidon_permute(native);
      for (std::size_t i = 0; i < t; ++i) {
        ASSERT_EQ(wires[i].value, native[i])
            << "t=" << t << " trial " << trial << " lane " << i;
      }
    }
    EXPECT_TRUE(b.satisfied()) << "t=" << t;
  }
  // The hash wrappers on top of the permutation, per arity.
  for (std::size_t arity = 1; arity <= 4; ++arity) {
    CircuitBuilder b;
    std::vector<Fr> values;
    std::vector<Wire> wires;
    for (std::size_t i = 0; i < arity; ++i) {
      values.push_back(Fr::random(rng));
      wires.push_back(b.witness(values.back()));
    }
    EXPECT_EQ(poseidon_gadget(b, wires).value, hash::poseidon_hash(values))
        << "arity " << arity;
    EXPECT_TRUE(b.satisfied()) << "arity " << arity;
  }
}

TEST(Gadgets, PoseidonConstraintCountBounded) {
  // t=3: 8 full rounds * 3 sboxes * 3 + 57 partial * (3 + 2 materialize)
  CircuitBuilder b;
  const Wire x = b.witness(Fr::one());
  const Wire y = b.witness(Fr::from_u64(2));
  (void)poseidon2_gadget(b, x, y);
  EXPECT_LE(b.cs().num_constraints(), 400u);
  EXPECT_GE(b.cs().num_constraints(), 200u);
}

TEST(Gadgets, MerkleRootMatchesNative) {
  IncrementalMerkleTree tree(6);
  for (std::uint64_t i = 0; i < 9; ++i) tree.insert(Fr::from_u64(100 + i));
  for (std::uint64_t idx : {0u, 3u, 8u}) {
    const MerklePath path = tree.auth_path(idx);
    CircuitBuilder b;
    const Wire leaf = b.witness(Fr::from_u64(100 + idx));
    const Wire root = merkle_root_gadget(b, leaf, path);
    EXPECT_EQ(root.value, tree.root()) << "index " << idx;
    EXPECT_TRUE(b.satisfied());
  }
}

// --- RLN circuit ---

struct RlnFixture {
  IncrementalMerkleTree tree{8};
  Fr sk;
  std::uint64_t index = 0;

  explicit RlnFixture(std::uint64_t seed = 223) {
    Rng rng(seed);
    sk = Fr::random(rng);
    // Surround our member with others.
    tree.insert(Fr::random(rng));
    index = tree.insert(hash::poseidon1(sk));
    tree.insert(Fr::random(rng));
  }

  RlnProverInput prover_input(const Fr& x, const Fr& epoch) const {
    return RlnProverInput{sk, tree.auth_path(index), x, epoch};
  }
};

TEST(RlnCircuit, PublicsMatchSpec) {
  const RlnFixture fx;
  const Fr x = Fr::from_u64(42);
  const Fr epoch = Fr::from_u64(54827003);
  const RlnProverInput input = fx.prover_input(x, epoch);
  const Fr a1 = hash::poseidon2(fx.sk, epoch);
  const auto check = [&](const RlnPublicInputs& pub, const char* source) {
    EXPECT_EQ(pub.x, x) << source;
    EXPECT_EQ(pub.y, fx.sk + a1 * x) << source;
    EXPECT_EQ(pub.nullifier, hash::poseidon1(a1)) << source;
    EXPECT_EQ(pub.epoch, epoch) << source;
    EXPECT_EQ(pub.root, fx.tree.root()) << source;
  };
  check(rln_compute_publics(input), "native");

  // A publish takes its publics from the gadget wires: the circuit's
  // publics and assignment slots 1..5 must hold the same five values.
  const RlnCircuit c = build_rln_circuit(input);
  check(c.publics, "circuit.publics");
  const std::span<const Fr> asg = c.builder.assignment();
  check(RlnPublicInputs{asg[1], asg[2], asg[3], asg[4], asg[5]},
        "assignment");
}

TEST(RlnCircuit, WitnessSatisfiesConstraints) {
  const RlnFixture fx;
  RlnCircuit c = build_rln_circuit(
      fx.prover_input(Fr::from_u64(7), Fr::from_u64(1000)));
  std::string violation;
  EXPECT_TRUE(c.builder.satisfied(&violation)) << violation;
}

TEST(RlnCircuit, WitnessOnlyBuildSharesTheDepthSystem) {
  const RlnFixture fx;
  const RlnCircuit c =
      build_rln_circuit(fx.prover_input(Fr::from_u64(7), Fr::from_u64(1000)));
  EXPECT_TRUE(c.builder.witness_only());
  EXPECT_EQ(&c.builder.cs(), &rln_constraint_system(8));
  EXPECT_EQ(c.builder.assignment().size(), c.builder.cs().num_variables());
}

TEST(RlnCircuit, WitnessOnlyAssignmentMatchesFullBuild) {
  const RlnFixture fx;
  const RlnProverInput input =
      fx.prover_input(Fr::from_u64(7), Fr::from_u64(1000));
  RlnCircuit full;  // builds constraints alongside the witness
  wire_rln_circuit(full, input);
  const RlnCircuit lean = build_rln_circuit(input);
  EXPECT_FALSE(full.builder.witness_only());
  EXPECT_EQ(lean.publics, full.publics);
  EXPECT_TRUE(std::ranges::equal(lean.builder.assignment(),
                                 full.builder.assignment()));
  // A real input wires the same structure as setup's dummy one.
  EXPECT_EQ(full.builder.cs().digest(), rln_constraint_system(8).digest());
}

TEST(RlnCircuit, SatisfiedChecksTheSharedSystem) {
  // Re-enter an honest witness value by value into a witness-only builder,
  // once as is and once with one private element flipped: satisfied() must
  // tell them apart, so it really evaluates the depth's constraints.
  const RlnFixture fx;
  const RlnCircuit honest =
      build_rln_circuit(fx.prover_input(Fr::from_u64(7), Fr::from_u64(1000)));
  const std::span<const Fr> values = honest.builder.assignment();
  const std::size_t num_public = honest.builder.cs().num_public();
  const auto rebuild = [&](std::size_t flip) {
    CircuitBuilder b(rln_constraint_system(8));
    for (std::size_t i = 1; i < values.size(); ++i) {
      const Fr v = i == flip ? values[i] + Fr::one() : values[i];
      (void)(i <= num_public ? b.public_input(v) : b.witness(v));
    }
    return b;
  };
  EXPECT_TRUE(rebuild(/*flip=*/0).satisfied());
  std::string violation;
  EXPECT_FALSE(rebuild(values.size() / 2).satisfied(&violation));
  EXPECT_FALSE(violation.empty());
}

// The prover's output bytes, pinned: SHA-256 over four proofs (Rng(7)) and
// their assignments, then the proving key's circuit digest. Everything
// under it is integer arithmetic, so it does not depend on the compiler.
std::string prover_bytes_sha256(std::size_t depth) {
  const Keypair& kp = rln_keypair(depth);
  IncrementalMerkleTree tree(depth);
  const Fr sk = Fr::from_u64(0x5eed);
  tree.insert(Fr::from_u64(1));
  tree.insert(Fr::from_u64(2));
  const std::uint64_t index = tree.insert(hash::poseidon1(sk));
  Rng rng(7);
  Bytes all;
  const auto append = [&all](const Bytes& b) {
    all.insert(all.end(), b.begin(), b.end());
  };
  for (std::uint64_t i = 0; i < 4; ++i) {
    const RlnCircuit c = build_rln_circuit(RlnProverInput{
        sk, tree.auth_path(index), Fr::from_u64(100 + i), Fr::from_u64(9000)});
    append(prove(kp.pk, c.builder.cs(), c.builder.assignment(), rng)
               .serialize());
    for (const Fr& v : c.builder.assignment()) append(v.to_bytes_be());
  }
  append(kp.pk.circuit_digest.to_bytes_be());
  return to_hex(hash::sha256_bytes(all));
}

TEST(RlnCircuit, ProverBytesArePinned) {
  EXPECT_EQ(prover_bytes_sha256(4),
            "4adda5115a786176c9ba551025339b2819a617d56e8767f84dde5419b987f2da");
  EXPECT_EQ(prover_bytes_sha256(20),
            "d5ce8f1a2fe1cc44c6cc5a01a0ffa4a99bc77244763e28cebbd23fac87b1e24f");
}

TEST(RlnCircuit, ConcurrentProversShareTheSealedSystem) {
  // No other test touches depth 7, so the four threads race to build and
  // seal its system, then prove and satisfy-check against the one store.
  constexpr std::size_t kDepth = 7;
  constexpr int kThreads = 4;
  IncrementalMerkleTree tree(kDepth);
  const Fr sk = Fr::from_u64(0xc0ffee);
  tree.insert(Fr::from_u64(1));
  const MerklePath path = tree.auth_path(tree.insert(hash::poseidon1(sk)));
  std::latch start(kThreads);
  std::array<const ConstraintSystem*, kThreads> system{};
  std::array<bool, kThreads> ok{};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      try {
        const Keypair& kp = rln_keypair(kDepth);
        system[t] = &rln_constraint_system(kDepth);
        const RlnCircuit c = build_rln_circuit(
            RlnProverInput{sk, path, Fr::from_u64(10 + t), Fr::from_u64(77)});
        Rng rng(100 + t);
        const Proof proof =
            prove(kp.pk, c.builder.cs(), c.builder.assignment(), rng);
        ok[t] = &c.builder.cs() == system[t] && c.builder.satisfied() &&
                verify(kp.vk, c.publics.to_vector(), proof);
      } catch (const std::exception&) {
        ok[t] = false;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(system[t], system[0]) << "thread " << t;
    EXPECT_TRUE(ok[t]) << "thread " << t;
  }
  ASSERT_NE(system[0], nullptr);
  EXPECT_TRUE(system[0]->sealed());
}

TEST(RlnCircuit, TwoSharesFromCircuitRecoverSk) {
  // End-to-end RLN property at the circuit level: the public outputs of two
  // same-epoch proofs expose sk via Shamir recovery.
  const RlnFixture fx;
  const Fr epoch = Fr::from_u64(999);
  const auto p1 = rln_compute_publics(fx.prover_input(Fr::from_u64(11), epoch));
  const auto p2 = rln_compute_publics(fx.prover_input(Fr::from_u64(22), epoch));
  EXPECT_EQ(p1.nullifier, p2.nullifier);  // double-signal detection signal
  const Fr recovered = sss::rln_recover_secret(sss::Share{p1.x, p1.y},
                                               sss::Share{p2.x, p2.y});
  EXPECT_EQ(recovered, fx.sk);
}

TEST(RlnCircuit, DifferentEpochsGiveDifferentNullifiers) {
  const RlnFixture fx;
  const auto p1 =
      rln_compute_publics(fx.prover_input(Fr::from_u64(1), Fr::from_u64(10)));
  const auto p2 =
      rln_compute_publics(fx.prover_input(Fr::from_u64(1), Fr::from_u64(11)));
  EXPECT_NE(p1.nullifier, p2.nullifier);
}

TEST(RlnCircuit, ConstraintCountGrowsWithDepth) {
  const std::size_t c8 = rln_constraint_system(8).num_constraints();
  const std::size_t c16 = rln_constraint_system(16).num_constraints();
  const std::size_t c32 = rln_constraint_system(32).num_constraints();
  EXPECT_LT(c8, c16);
  EXPECT_LT(c16, c32);
  // Each level adds one Poseidon2 + swap + bit: roughly constant increment.
  const std::size_t inc1 = c16 - c8;
  const std::size_t inc2 = c32 - c16;
  EXPECT_EQ(inc1 / 8, inc2 / 16);
}

// --- Simulated Groth16 ---

class Groth16Rln : public ::testing::Test {
 protected:
  RlnFixture fx;
  const Keypair& kp = rln_keypair(8);

  Proof make_proof(const Fr& x, const Fr& epoch, RlnPublicInputs* pub,
                   std::uint64_t seed = 1) {
    RlnCircuit c = build_rln_circuit(fx.prover_input(x, epoch));
    if (pub) *pub = c.publics;
    Rng rng(seed);
    return prove(kp.pk, c.builder.cs(), c.builder.assignment(), rng);
  }
};

TEST_F(Groth16Rln, Completeness) {
  RlnPublicInputs pub;
  const Proof proof = make_proof(Fr::from_u64(5), Fr::from_u64(100), &pub);
  EXPECT_TRUE(verify(kp.vk, pub.to_vector(), proof));
}

TEST_F(Groth16Rln, RejectsTamperedPublicInputs) {
  RlnPublicInputs pub;
  const Proof proof = make_proof(Fr::from_u64(5), Fr::from_u64(100), &pub);
  for (int field = 0; field < 5; ++field) {
    auto inputs = pub.to_vector();
    inputs[static_cast<std::size_t>(field)] += Fr::one();
    EXPECT_FALSE(verify(kp.vk, inputs, proof)) << "field " << field;
  }
}

TEST_F(Groth16Rln, RejectsTamperedProof) {
  RlnPublicInputs pub;
  Proof proof = make_proof(Fr::from_u64(5), Fr::from_u64(100), &pub);
  proof.binding[0] ^= 1;
  EXPECT_FALSE(verify(kp.vk, pub.to_vector(), proof));
}

TEST_F(Groth16Rln, RejectsProofElementSwap) {
  RlnPublicInputs pub;
  Proof proof = make_proof(Fr::from_u64(5), Fr::from_u64(100), &pub);
  std::swap(proof.a, proof.b);
  EXPECT_FALSE(verify(kp.vk, pub.to_vector(), proof));
}

TEST_F(Groth16Rln, RejectsWrongInputCount) {
  RlnPublicInputs pub;
  const Proof proof = make_proof(Fr::from_u64(5), Fr::from_u64(100), &pub);
  auto inputs = pub.to_vector();
  inputs.pop_back();
  EXPECT_FALSE(verify(kp.vk, inputs, proof));
}

TEST_F(Groth16Rln, RejectsGarbageProof) {
  RlnPublicInputs pub;
  (void)make_proof(Fr::from_u64(5), Fr::from_u64(100), &pub);
  Proof garbage;  // all zero
  EXPECT_FALSE(verify(kp.vk, pub.to_vector(), garbage));
}

TEST_F(Groth16Rln, ProofsAreRandomized) {
  RlnPublicInputs pub;
  const Proof p1 = make_proof(Fr::from_u64(5), Fr::from_u64(100), &pub, 1);
  const Proof p2 = make_proof(Fr::from_u64(5), Fr::from_u64(100), &pub, 2);
  EXPECT_NE(p1, p2);  // zero-knowledge: same statement, different proofs
  EXPECT_TRUE(verify(kp.vk, pub.to_vector(), p1));
  EXPECT_TRUE(verify(kp.vk, pub.to_vector(), p2));
}

TEST_F(Groth16Rln, ProveRejectsCorruptedWitness) {
  RlnCircuit c =
      build_rln_circuit(fx.prover_input(Fr::from_u64(5), Fr::from_u64(100)));
  std::vector<Fr> assignment(c.builder.assignment().begin(),
                             c.builder.assignment().end());
  assignment[6] += Fr::one();  // corrupt a witness variable
  Rng rng(3);
  EXPECT_THROW(prove(kp.pk, c.builder.cs(), assignment, rng), ProofError);
}

TEST_F(Groth16Rln, ProveRejectsMismatchedCircuit) {
  RlnCircuit c =
      build_rln_circuit(fx.prover_input(Fr::from_u64(5), Fr::from_u64(100)));
  const Keypair& other = rln_keypair(10);  // wrong depth
  Rng rng(4);
  EXPECT_THROW(
      prove(other.pk, c.builder.cs(), c.builder.assignment(), rng),
      ProofError);
}

TEST_F(Groth16Rln, NonMemberCannotProve) {
  // A prover whose pk is NOT in the tree fails witness generation: the
  // circuit's membership constraint is violated if they claim the root.
  Rng rng(229);
  const Fr outsider_sk = Fr::random(rng);
  // Forge a path: siblings from a tree that doesn't contain the outsider.
  RlnProverInput input{outsider_sk, fx.tree.auth_path(fx.index),
                       Fr::from_u64(5), Fr::from_u64(100)};
  // The honest publics computation yields a root != the real tree root.
  const RlnPublicInputs pub = rln_compute_publics(input);
  EXPECT_NE(pub.root, fx.tree.root());
}

TEST(Groth16, ProofSerializationRoundTrip) {
  Rng rng(233);
  Proof p;
  const Bytes a = rng.next_bytes(32);
  std::copy(a.begin(), a.end(), p.a.begin());
  const Bytes bytes = p.serialize();
  ASSERT_EQ(bytes.size(), Proof::kSerializedSize);
  EXPECT_EQ(Proof::deserialize(bytes), p);
}

TEST(Groth16, DeserializeRejectsWrongSize) {
  EXPECT_THROW(Proof::deserialize(Bytes(127, 0)), ProofError);
  EXPECT_THROW(Proof::deserialize(Bytes(129, 0)), ProofError);
}

TEST(Groth16, ProvingKeySizeGrowsWithDepth) {
  const Keypair& k8 = rln_keypair(8);
  const Keypair& k16 = rln_keypair(16);
  EXPECT_GT(k16.pk.serialized_size(), k8.pk.serialized_size());
  // Verifying key stays small and constant-ish.
  EXPECT_EQ(k8.vk.serialized_size(), k16.vk.serialized_size());
  EXPECT_LT(k8.vk.serialized_size(), 1024u);
}

TEST(Groth16, ProvingKeySerializeMatchesReportedSize) {
  const Keypair& kp = rln_keypair(4);
  EXPECT_EQ(kp.pk.serialize().size(), kp.pk.serialized_size());
}

TEST(Groth16, KeypairDeterministicPerDepth) {
  const Keypair& a = rln_keypair(6);
  const Keypair& b = rln_keypair(6);
  EXPECT_EQ(&a, &b);  // cached
  EXPECT_EQ(a.pk.circuit_digest, rln_constraint_system(6).digest());
}

}  // namespace
}  // namespace waku::zksnark
