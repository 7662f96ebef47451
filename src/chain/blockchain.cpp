#include "chain/blockchain.hpp"

#include <algorithm>
#include <exception>

#include "common/expect.hpp"

namespace waku::chain {

Blockchain::Blockchain(Config config) : config_(std::move(config)) {}

void Blockchain::create_account(const Address& addr, Gwei balance) {
  balances_[addr] = balance;
}

Gwei Blockchain::balance(const Address& addr) const {
  const auto it = balances_.find(addr);
  return it == balances_.end() ? 0 : it->second;
}

Address Blockchain::deploy(std::unique_ptr<Contract> contract) {
  const Address addr = Address::from_u64(next_contract_id_++);
  balances_.emplace(addr, 0);
  contracts_.emplace(addr, std::move(contract));
  return addr;
}

std::uint64_t Blockchain::submit(Transaction tx) {
  const std::uint64_t handle = next_handle_++;
  pending_.emplace_back(handle, std::move(tx));
  receipts_.emplace_back();  // slot filled when the tx is mined
  return handle;
}

void Blockchain::internal_transfer(const Address& from, const Address& to,
                                   Gwei amount) {
  auto it = balances_.find(from);
  if (it == balances_.end() || it->second < amount) {
    throw Revert("insufficient contract balance for transfer");
  }
  it->second -= amount;
  balances_[to] += amount;
  if (balance_journal_active_) {
    balance_journal_.emplace_back(from, amount, to);
  }
}

TxReceipt Blockchain::execute(const Transaction& tx,
                              std::uint64_t block_number) {
  TxReceipt receipt;
  receipt.block_number = block_number;

  const Gwei max_fee = tx.gas_limit * tx.gas_price;
  auto sender_it = balances_.find(tx.from);
  if (sender_it == balances_.end() ||
      sender_it->second < max_fee + tx.value) {
    receipt.revert_reason = "insufficient funds for gas * price + value";
    return receipt;
  }

  GasMeter meter(tx.gas_limit, config_.schedule);
  const auto contract_it = contracts_.find(tx.to);

  // Begin journals so a revert unwinds every state effect.
  balance_journal_active_ = true;
  balance_journal_.clear();
  if (contract_it != contracts_.end()) {
    contract_it->second->storage().begin_journal();
  }

  std::vector<Event> events;
  bool success = false;
  std::string revert_reason;
  Bytes return_data;
  try {
    meter.charge(config_.schedule.tx_intrinsic);
    meter.charge(config_.schedule.calldata_byte * tx.calldata.size());
    internal_transfer(tx.from, tx.to, tx.value);
    if (contract_it != contracts_.end()) {
      CallContext ctx(*this, tx.to, tx.from, tx.value, block_number, meter,
                      contract_it->second->storage(), events);
      return_data = contract_it->second->call(ctx, tx.method, tx.calldata);
    }
    success = true;
  } catch (const Revert& r) {
    revert_reason = r.what();
  } catch (const OutOfGas&) {
    revert_reason = "out of gas";
  }

  if (success) {
    if (contract_it != contracts_.end()) {
      contract_it->second->storage().commit_journal();
    }
  } else {
    // Unwind transfers (in reverse) and storage writes.
    for (auto it = balance_journal_.rbegin(); it != balance_journal_.rend();
         ++it) {
      const auto& [from, amount, to] = *it;
      balances_[to] -= amount;
      balances_[from] += amount;
    }
    if (contract_it != contracts_.end()) {
      contract_it->second->storage().rollback_journal();
    }
    events.clear();
  }
  balance_journal_active_ = false;
  balance_journal_.clear();

  receipt.success = success;
  receipt.revert_reason = std::move(revert_reason);
  receipt.gas_used =
      success ? meter.settled_gas() : std::min(meter.used(), tx.gas_limit);
  if (!success && receipt.gas_used == 0) receipt.gas_used = tx.gas_limit;
  receipt.fee_paid = receipt.gas_used * tx.gas_price;
  receipt.return_data = std::move(return_data);
  receipt.events = std::move(events);

  balances_[tx.from] -= receipt.fee_paid;  // miner fee leaves the system
  return receipt;
}

const Block& Blockchain::mine_block(std::uint64_t timestamp_ms) {
  Block block;
  block.number = blocks_.size() + 1;
  block.timestamp_ms = timestamp_ms;

  // Miner ordering: highest gas price first (stable for equal bids) — the
  // mempool priority rule that makes front-running possible and that the
  // commit-reveal slashing scheme defends against (paper §III-F).
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.gas_price > b.second.gas_price;
                   });

  std::uint64_t gas_in_block = 0;
  while (!pending_.empty()) {
    // Respect the block gas limit: leftover transactions wait.
    if (gas_in_block >= config_.block_gas_limit) break;
    const auto [handle, tx] = std::move(pending_.front());
    pending_.pop_front();
    TxReceipt receipt = execute(tx, block.number);
    gas_in_block += receipt.gas_used;
    receipts_[handle] = receipt;
    block.receipts.push_back(std::move(receipt));
  }

  blocks_.push_back(std::move(block));
  const Block& mined = blocks_.back();
  const std::size_t first = event_log_.size();
  for (const TxReceipt& r : mined.receipts) {
    event_log_.insert(event_log_.end(), r.events.begin(), r.events.end());
  }
  if (event_log_.size() > first) {
    const BlockEvents events(event_log_.data() + first,
                             event_log_.size() - first);
    // A callback may subscribe or unsubscribe while it runs, so each one
    // is called through a copy; a late subscriber first hears of the next
    // block.
    const std::size_t count = subscribers_.size();
    for (std::size_t i = 0; i < count; ++i) {
      const std::function<void(BlockEvents)> callback = subscribers_[i];
      if (callback) callback(events);
    }
  }
  return mined;
}

Bytes Blockchain::static_call(const Address& to, const std::string& method,
                              BytesView calldata) {
  const auto it = contracts_.find(to);
  WAKU_EXPECTS(it != contracts_.end());
  GasMeter meter(config_.block_gas_limit, config_.schedule);
  std::vector<Event> events;
  Storage& storage = it->second->storage();
  storage.begin_journal();
  balance_journal_active_ = true;
  Bytes out;
  std::exception_ptr failure;
  try {
    CallContext ctx(*this, to, Address{}, 0,
                    blocks_.empty() ? 0 : blocks_.size(), meter, storage,
                    events);
    out = it->second->call(ctx, method, calldata);
  } catch (...) {
    failure = std::current_exception();
  }
  // Static calls must not mutate state, whether the call returned or threw.
  for (auto jt = balance_journal_.rbegin(); jt != balance_journal_.rend();
       ++jt) {
    const auto& [from, amount, target] = *jt;
    balances_[target] -= amount;
    balances_[from] += amount;
  }
  storage.rollback_journal();
  balance_journal_active_ = false;
  balance_journal_.clear();
  if (failure) std::rethrow_exception(failure);
  return out;
}

std::optional<TxReceipt> Blockchain::receipt(std::uint64_t tx_handle) const {
  if (tx_handle >= receipts_.size()) return std::nullopt;
  return receipts_[tx_handle];  // nullopt while still pending
}

const Block& Blockchain::block(std::uint64_t number) const {
  WAKU_EXPECTS(number >= 1 && number <= blocks_.size());
  return blocks_[number - 1];
}

std::uint64_t Blockchain::subscribe_blocks(
    std::function<void(BlockEvents)> callback) {
  subscribers_.push_back(std::move(callback));
  return subscribers_.size() - 1;
}

std::uint64_t Blockchain::subscribe_events(
    std::function<void(const Event&)> callback) {
  return subscribe_blocks(
      [callback = std::move(callback)](BlockEvents events) {
        for (const Event& ev : events) callback(ev);
      });
}

void Blockchain::unsubscribe_events(std::uint64_t subscription_id) {
  if (subscription_id < subscribers_.size()) {
    subscribers_[subscription_id] = nullptr;
  }
}

void Blockchain::replay_blocks(
    std::uint64_t from_seq, const std::function<void(BlockEvents)>& fn) const {
  std::size_t begin = from_seq;
  while (begin < event_log_.size()) {
    std::size_t end = begin + 1;
    while (end < event_log_.size() &&
           event_log_[end].block_number == event_log_[begin].block_number) {
      ++end;
    }
    fn(BlockEvents(event_log_.data() + begin, end - begin));
    begin = end;
  }
}

bool Blockchain::at_block_boundary(std::uint64_t seq) const {
  if (seq == 0 || seq >= event_log_.size()) return true;
  return event_log_[seq - 1].block_number != event_log_[seq].block_number;
}

}  // namespace waku::chain
