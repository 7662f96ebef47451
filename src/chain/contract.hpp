// Contract execution model: contracts are C++ objects with gas-metered
// word storage, an event sink, and value-transfer access, invoked by the
// Blockchain through a call context. This mirrors the EVM's storage/log
// cost model without interpreting bytecode.
#pragma once

#include <string>
#include <unordered_map>

#include "chain/gas.hpp"
#include "chain/types.hpp"
#include "ff/u256.hpp"

namespace waku::chain {

class Blockchain;

/// Thrown by contract code to revert the transaction.
class Revert : public std::runtime_error {
 public:
  explicit Revert(const std::string& reason) : std::runtime_error(reason) {}
};

/// Gas-metered 256-bit word storage (one contract's storage trie) with a
/// per-transaction undo journal so reverted transactions leave no trace.
class Storage {
 public:
  /// Metered read.
  ff::U256 load(GasMeter& gas, const ff::U256& key) const;

  /// Metered write with set/update/clear pricing and clear refunds.
  void store(GasMeter& gas, const ff::U256& key, const ff::U256& value);

  /// Unmetered peek (for tests/benches/off-chain indexers).
  [[nodiscard]] ff::U256 peek(const ff::U256& key) const;

  // Transaction journal (driven by the Blockchain).
  void begin_journal();
  void commit_journal();
  void rollback_journal();

 private:
  void raw_set(const ff::U256& key, const ff::U256& value);

  std::unordered_map<ff::U256, ff::U256, ff::U256Hash> slots_;
  bool journaling_ = false;
  std::vector<std::pair<ff::U256, ff::U256>> journal_;  // (key, old value)
};

/// Everything a contract method invocation can see and do.
class CallContext {
 public:
  CallContext(Blockchain& chain, Address self, Address sender, Gwei value,
              std::uint64_t block_number, GasMeter& gas, Storage& storage,
              std::vector<Event>& events)
      : chain_(chain),
        self_(self),
        sender_(sender),
        value_(value),
        block_number_(block_number),
        gas_(gas),
        storage_(storage),
        events_(events) {}

  [[nodiscard]] Address self() const { return self_; }
  [[nodiscard]] Address sender() const { return sender_; }
  [[nodiscard]] Gwei value() const { return value_; }
  [[nodiscard]] std::uint64_t block_number() const { return block_number_; }

  GasMeter& gas() { return gas_; }
  [[nodiscard]] const GasSchedule& schedule() const { return gas_.schedule(); }

  ff::U256 sload(const ff::U256& key) { return storage_.load(gas_, key); }
  void sstore(const ff::U256& key, const ff::U256& value) {
    storage_.store(gas_, key, value);
  }

  /// Emits a log with LOG gas pricing.
  void emit(std::string name, std::vector<ff::U256> topics, Bytes data = {});

  /// Transfers gwei out of the contract's balance.
  void transfer_out(const Address& to, Gwei amount);

  /// Charges the gas cost of one on-chain ZK-friendly hash evaluation.
  void charge_poseidon() { gas_.charge(schedule().poseidon_hash); }

  /// Reverts the transaction with `reason` unless `cond` holds.
  void require(bool cond, const std::string& reason) const {
    if (!cond) throw Revert(reason);
  }

 private:
  Blockchain& chain_;
  Address self_;
  Address sender_;
  Gwei value_;
  std::uint64_t block_number_;
  GasMeter& gas_;
  Storage& storage_;
  std::vector<Event>& events_;
};

/// Base class for native contracts.
class Contract {
 public:
  virtual ~Contract() = default;

  /// Dispatches `method` with `calldata`; returns ABI-free return data.
  /// Throws Revert (or OutOfGas) to fail the transaction.
  virtual Bytes call(CallContext& ctx, const std::string& method,
                     BytesView calldata) = 0;

  Storage& storage() { return storage_; }
  [[nodiscard]] const Storage& storage() const { return storage_; }

 private:
  Storage storage_;
};

}  // namespace waku::chain
