// Discrete-block Ethereum simulator: a transaction pool, block production
// with configurable interval, per-account gwei balances, gas accounting,
// and an event subscription feed (the contract "log" stream peers use to
// keep their identity-commitment trees in sync, paper §III-C).
//
// Time is externally driven: callers (or the network simulator) invoke
// mine_block(now) — registration latency experiments (E9/E10) emerge from
// the block interval exactly as the paper's §IV-A discussion describes.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>

#include "chain/contract.hpp"
#include "chain/types.hpp"

namespace waku::chain {

class Blockchain {
 public:
  struct Config {
    std::uint64_t block_interval_ms = 12'000;  ///< mainnet-ish cadence
    std::uint64_t block_gas_limit = 30'000'000;
    GasSchedule schedule;
  };

  Blockchain() : Blockchain(Config{}) {}
  explicit Blockchain(Config config);

  // -- Accounts -------------------------------------------------------------

  void create_account(const Address& addr, Gwei balance);
  [[nodiscard]] Gwei balance(const Address& addr) const;

  // -- Contracts ------------------------------------------------------------

  /// Deploys a contract; the chain owns it. Returns its address.
  Address deploy(std::unique_ptr<Contract> contract);

  /// Typed access to a deployed contract (tests/off-chain tooling).
  template <typename T>
  T& contract_at(const Address& addr) {
    return dynamic_cast<T&>(*contracts_.at(addr));
  }

  // -- Transactions ---------------------------------------------------------

  /// Queues a transaction; it executes in the next mined block.
  /// Returns a handle for locating the receipt.
  std::uint64_t submit(Transaction tx);

  /// Mines a block at `timestamp_ms`, executing all pending transactions
  /// in submission order. Notifies event subscribers.
  const Block& mine_block(std::uint64_t timestamp_ms);

  /// Read-only contract call: no gas charge, no state change visible.
  Bytes static_call(const Address& to, const std::string& method,
                    BytesView calldata);

  /// Receipt for a submitted transaction, if its block has been mined.
  [[nodiscard]] std::optional<TxReceipt> receipt(std::uint64_t tx_handle) const;

  // -- Chain state ----------------------------------------------------------

  [[nodiscard]] std::uint64_t height() const { return blocks_.size(); }
  [[nodiscard]] const Block& block(std::uint64_t number) const;
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  [[nodiscard]] const Config& config() const { return config_; }

  /// A block's events, in emission order.
  using BlockEvents = std::span<const Event>;

  /// Registers a callback invoked once per newly mined block that emitted
  /// events, with all of that block's events at once (the
  /// eth_subscribe("logs") analog, batched per block the way a membership
  /// follower applies them). Subscribers are called in subscription order,
  /// each with the whole block. Returns a subscription id for
  /// unsubscribe_events (a restarting node must detach its old callback
  /// before re-subscribing).
  std::uint64_t subscribe_blocks(std::function<void(BlockEvents)> callback);
  /// Per-event form of subscribe_blocks: the callback sees every event of
  /// every newly mined block, one at a time.
  std::uint64_t subscribe_events(std::function<void(const Event&)> callback);
  /// Detaches a subscription made by either subscribe_* call.
  void unsubscribe_events(std::uint64_t subscription_id);

  // -- Event history (the eth_getLogs analog) -------------------------------
  //
  // Every mined event is retained in emission order under a global
  // sequence number (0-based). A durable node persists the count of events
  // it has applied as its replay cursor; after a restart it resumes from
  // that cursor instead of genesis.

  /// Total events emitted so far (== the next event's sequence number).
  [[nodiscard]] std::uint64_t event_count() const {
    return event_log_.size();
  }
  /// Replays events [from_seq, event_count()) in emission order, grouped
  /// by block as live subscribers receive them: one call per maximal run
  /// of events with the same Event::block_number. A cursor inside a block
  /// yields that block's remaining events as its first run.
  void replay_blocks(std::uint64_t from_seq,
                     const std::function<void(BlockEvents)>& fn) const;
  /// True when no block straddles sequence number `seq`: the events before
  /// it all belong to earlier blocks than the events from it on (always
  /// true at 0 and at event_count(), since a block is mined whole).
  [[nodiscard]] bool at_block_boundary(std::uint64_t seq) const;

 private:
  TxReceipt execute(const Transaction& tx, std::uint64_t block_number);

  Config config_;
  std::unordered_map<Address, Gwei, AddressHash> balances_;
  std::unordered_map<Address, std::unique_ptr<Contract>, AddressHash>
      contracts_;
  std::deque<std::pair<std::uint64_t, Transaction>> pending_;  // (handle, tx)
  std::vector<Block> blocks_;
  std::vector<std::optional<TxReceipt>> receipts_;  // indexed by tx handle
  std::uint64_t next_handle_ = 0;
  // Contract addresses live in a distinctive range so ad-hoc test account
  // addresses (small integers) can never collide with them.
  std::uint64_t next_contract_id_ = 0xC0DE00000000ULL;
  // Slot index == subscription id; unsubscribed slots become null.
  std::vector<std::function<void(BlockEvents)>> subscribers_;
  std::vector<Event> event_log_;  // every mined event, emission order

  friend class CallContext;
  void internal_transfer(const Address& from, const Address& to, Gwei amount);

  bool balance_journal_active_ = false;
  std::vector<std::tuple<Address, Gwei, Address>> balance_journal_;
};

}  // namespace waku::chain
