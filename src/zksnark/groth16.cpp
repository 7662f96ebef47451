#include "zksnark/groth16.hpp"

#include "common/expect.hpp"
#include "common/serde.hpp"
#include "hash/sha256.hpp"

namespace waku::zksnark {

namespace {

std::array<std::uint8_t, 32> digest32(BytesView data) {
  const hash::Sha256Digest d = hash::sha256(data);
  std::array<std::uint8_t, 32> out;
  std::copy(d.begin(), d.end(), out.begin());
  return out;
}

// Computes sum_i query[i] * <LC_i, s> over all constraints — the cost-shape
// stand-in for one multi-scalar multiplication pass.
Fr rlc_pass(const ConstraintSystem& cs, const std::vector<Fr>& query,
            std::span<const Fr> assignment, Side which) {
  Fr acc = Fr::zero();
  for (std::size_t i = 0; i < cs.num_constraints(); ++i) {
    acc += query[i] * cs.evaluate(i, which, assignment);
  }
  return acc;
}

// --- pairing cost model ------------------------------------------------------
// The MAC replaces the pairing algebra (see header), but the verifier's cost
// shape is kept faithful: a real Groth16 verify computes a product of three
// Miller loops followed by one shared final exponentiation. Batch
// verification amortizes everything except the per-proof e(A_i, B_i) loop.
// The chains below are Fr multiplication loops sized so a single verify
// lands in the tens of microseconds — the paper's ~30 ms constant-time
// verification scaled to this simulation's field arithmetic.

constexpr int kMillerLoopIters = 192;
constexpr int kFinalExpIters = 384;

void pairing_work(const Fr& seed, int iters) {
  Fr acc = seed + Fr::one();
  for (int i = 0; i < iters; ++i) acc = acc.square() + seed;
  volatile std::uint64_t sink = acc.mont_repr().limb[0];
  (void)sink;
}

// IC accumulation: the per-public-input work a real verifier performs.
// The accumulator seeds the pairing-cost chains so neither is optimized
// away (binding itself comes from the hashed publics in the MAC).
Fr ic_accumulate(const VerifyingKey& vk, std::span<const Fr> public_inputs) {
  Fr acc = vk.ic[0];
  for (std::size_t i = 0; i < public_inputs.size(); ++i) {
    acc += vk.ic[i + 1] * public_inputs[i];
  }
  return acc;
}

// The designated-verifier MAC over (secret, circuit, publics, proof
// elements) — the value a real pairing check would authenticate.
std::array<std::uint8_t, 32> binding_tag(const VerifyingKey& vk,
                                         std::span<const Fr> public_inputs,
                                         const Proof& proof) {
  ByteWriter w;
  w.write_raw(BytesView(vk.setup_secret.data(), vk.setup_secret.size()));
  w.write_raw(vk.circuit_digest.to_bytes_be());
  w.write_u64(vk.num_public);
  for (const Fr& input : public_inputs) {
    w.write_raw(input.to_bytes_be());
  }
  w.write_raw(BytesView(proof.a.data(), 32));
  w.write_raw(BytesView(proof.b.data(), 32));
  w.write_raw(BytesView(proof.c.data(), 32));
  return digest32(w.data());
}

}  // namespace

Bytes Proof::serialize() const {
  Bytes out;
  out.reserve(kSerializedSize);
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  out.insert(out.end(), c.begin(), c.end());
  out.insert(out.end(), binding.begin(), binding.end());
  return out;
}

Proof Proof::deserialize(BytesView bytes) {
  if (bytes.size() != kSerializedSize) {
    throw ProofError("Proof::deserialize: expected 128 bytes");
  }
  Proof p;
  std::copy(bytes.begin() + 0, bytes.begin() + 32, p.a.begin());
  std::copy(bytes.begin() + 32, bytes.begin() + 64, p.b.begin());
  std::copy(bytes.begin() + 64, bytes.begin() + 96, p.c.begin());
  std::copy(bytes.begin() + 96, bytes.begin() + 128, p.binding.begin());
  return p;
}

std::size_t ProvingKey::serialized_size() const {
  // Header + digest + secret + 3 per-constraint queries + 3 per-variable
  // element groups (A/B1/B2 of a real Groth16 pk).
  return 32 + 32 + 3 * 8 + 3 * num_constraints * 32 + 3 * num_variables * 32;
}

Bytes ProvingKey::serialize() const {
  ByteWriter w;
  w.write_raw(circuit_digest.to_bytes_be());
  w.write_raw(BytesView(setup_secret.data(), setup_secret.size()));
  w.write_u64(num_constraints);
  w.write_u64(num_variables);
  w.write_u64(num_public);
  for (const auto& q : {a_query, b_query, c_query}) {
    for (const Fr& e : q) w.write_raw(e.to_bytes_be());
  }
  // Per-variable elements of a real pk (A/B1/B2 queries): deterministic
  // filler derived from the digest, so serialized size is faithful.
  Bytes filler = circuit_digest.to_bytes_be();
  for (std::uint64_t v = 0; v < 3 * num_variables; ++v) {
    w.write_raw(filler);
  }
  return std::move(w).take();
}

std::size_t VerifyingKey::serialized_size() const {
  // alpha/beta/gamma/delta stand-ins + IC elements.
  return 4 * 32 + ic.size() * 32 + 32;
}

Keypair trusted_setup(const ConstraintSystem& cs, Rng& rng) {
  Keypair kp;
  kp.pk.circuit_digest = cs.digest();
  kp.pk.num_constraints = cs.num_constraints();
  kp.pk.num_variables = cs.num_variables();
  kp.pk.num_public = cs.num_public();
  kp.pk.a_query.reserve(cs.num_constraints());
  kp.pk.b_query.reserve(cs.num_constraints());
  kp.pk.c_query.reserve(cs.num_constraints());
  for (std::size_t i = 0; i < cs.num_constraints(); ++i) {
    kp.pk.a_query.push_back(Fr::random(rng));
    kp.pk.b_query.push_back(Fr::random(rng));
    kp.pk.c_query.push_back(Fr::random(rng));
  }
  const Bytes secret = rng.next_bytes(32);
  std::copy(secret.begin(), secret.end(), kp.pk.setup_secret.begin());

  kp.vk.circuit_digest = kp.pk.circuit_digest;
  kp.vk.num_public = kp.pk.num_public;
  kp.vk.setup_secret = kp.pk.setup_secret;
  kp.vk.ic.reserve(kp.vk.num_public + 1);
  for (std::uint64_t i = 0; i <= kp.vk.num_public; ++i) {
    kp.vk.ic.push_back(Fr::random(rng));
  }
  return kp;
}

Proof prove(const ProvingKey& pk, const ConstraintSystem& cs,
            std::span<const Fr> assignment, Rng& rng) {
  if (pk.circuit_digest != cs.digest()) {
    throw ProofError("prove: proving key does not match circuit");
  }
  if (assignment.size() != cs.num_variables()) {
    throw ProofError("prove: assignment size mismatch");
  }
  std::string violation;
  if (!cs.is_satisfied(assignment, &violation)) {
    throw ProofError("prove: witness does not satisfy circuit at '" +
                     violation + "'");
  }

  // MSM-shaped work: three passes over every constraint term.
  const Fr ra = rlc_pass(cs, pk.a_query, assignment, Side::kA);
  const Fr rb = rlc_pass(cs, pk.b_query, assignment, Side::kB);
  const Fr rc = rlc_pass(cs, pk.c_query, assignment, Side::kC);

  const Fr rho = Fr::random(rng);  // proof randomization (zero-knowledge)

  auto element = [&](char tag, const Fr& v) {
    ByteWriter w;
    w.write_u8(static_cast<std::uint8_t>(tag));
    w.write_raw(pk.circuit_digest.to_bytes_be());
    w.write_raw(v.to_bytes_be());
    w.write_raw(rho.to_bytes_be());
    return digest32(w.data());
  };

  Proof proof;
  proof.a = element('A', ra);
  proof.b = element('B', rb);
  proof.c = element('C', rc);

  // Binding tag over (secret, circuit, public inputs, proof elements).
  ByteWriter w;
  w.write_raw(BytesView(pk.setup_secret.data(), pk.setup_secret.size()));
  w.write_raw(pk.circuit_digest.to_bytes_be());
  w.write_u64(pk.num_public);
  for (std::size_t i = 1; i <= pk.num_public; ++i) {
    w.write_raw(assignment[i].to_bytes_be());
  }
  w.write_raw(BytesView(proof.a.data(), 32));
  w.write_raw(BytesView(proof.b.data(), 32));
  w.write_raw(BytesView(proof.c.data(), 32));
  proof.binding = digest32(w.data());
  return proof;
}

bool verify(const VerifyingKey& vk, std::span<const Fr> public_inputs,
            const Proof& proof) {
  if (public_inputs.size() != vk.num_public) return false;

  const Fr acc = ic_accumulate(vk, public_inputs);
  const std::array<std::uint8_t, 32> expected =
      binding_tag(vk, public_inputs, proof);

  // Three Miller loops (A·B, C·delta, IC·gamma) + one final exponentiation.
  pairing_work(acc, 3 * kMillerLoopIters + kFinalExpIters);

  return ct_equal(BytesView(expected.data(), expected.size()),
                  BytesView(proof.binding.data(), proof.binding.size()));
}

namespace {

/// verify(), adding the pairing work it prices to `out`.
bool verify_counted(const VerifyingKey& vk, const BatchEntry& entry,
                    BatchVerifyOutcome& out) {
  if (entry.public_inputs.size() == vk.num_public) {
    out.miller_loops += 3;
    out.final_exps += 1;
  }
  return verify(vk, entry.public_inputs, entry.proof);
}

}  // namespace

BatchVerifyOutcome verify_batch(const VerifyingKey& vk,
                                std::span<const BatchEntry> entries, Rng& rng) {
  BatchVerifyOutcome out;
  out.ok.assign(entries.size(), false);
  if (entries.empty()) {
    out.aggregated = true;
    return out;
  }
  if (entries.size() == 1) {
    out.ok[0] = verify_counted(vk, entries[0], out);
    // A batch of one is its own aggregate: success settles in one check,
    // failure is (trivially) isolated — keeps the caller's invariant that
    // every verified window counts as exactly one of aggregated/fallback.
    out.aggregated = out.ok[0];
    return out;
  }

  // Per-entry leg: IC accumulation, binding tag, and the e(A_i, B_i) Miller
  // loop, each folded into the aggregate with fresh random weights so no
  // adversarial combination of wrong tags can cancel out. Tags are folded
  // as two 16-byte halves — each canonical (< r), so the embedding is
  // injective over the full 32 bytes. Reducing whole 32-byte tags mod r
  // would be malleable: tag + r has the same residue, and the aggregate
  // would accept a byte-tampered binding that per-proof verify rejects.
  Fr agg_expected = Fr::zero();
  Fr agg_actual = Fr::zero();
  bool any_shape_error = false;
  const auto fold = [](Fr& acc, const std::array<std::uint8_t, 32>& tag,
                       const Fr& w_lo, const Fr& w_hi) {
    acc += w_lo * Fr::from_bytes_reduce(BytesView(tag.data(), 16));
    acc += w_hi * Fr::from_bytes_reduce(BytesView(tag.data() + 16, 16));
  };
  for (const BatchEntry& entry : entries) {
    if (entry.public_inputs.size() != vk.num_public) {
      any_shape_error = true;  // cannot even form this entry's check
      continue;
    }
    const Fr acc = ic_accumulate(vk, entry.public_inputs);
    const std::array<std::uint8_t, 32> expected =
        binding_tag(vk, entry.public_inputs, entry.proof);
    const Fr w_lo = Fr::random(rng);
    const Fr w_hi = Fr::random(rng);
    fold(agg_expected, expected, w_lo, w_hi);
    fold(agg_actual, entry.proof.binding, w_lo, w_hi);
    pairing_work(acc, kMillerLoopIters);
    ++out.miller_loops;
  }

  // Shared legs: the RLC collapses every C·delta and IC·gamma pairing into
  // one Miller loop each, and the whole product shares a single final
  // exponentiation.
  pairing_work(agg_expected + agg_actual,
               2 * kMillerLoopIters + kFinalExpIters);
  out.miller_loops += 2;
  out.final_exps += 1;

  if (!any_shape_error && agg_expected == agg_actual) {
    out.ok.assign(entries.size(), true);
    out.aggregated = true;
    return out;
  }

  // Aggregate mismatch: some proof is bad. Fall back to per-proof
  // verification to isolate it — correctness over throughput here.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out.ok[i] = verify_counted(vk, entries[i], out);
  }
  return out;
}

}  // namespace waku::zksnark
