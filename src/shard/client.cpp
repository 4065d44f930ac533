#include "shard/client.hpp"

namespace optsync::shard {

sim::Process Client::sync_route(dsm::NodeId n, std::vector<Key> keys) {
  for (;;) {
    bool stale = false;
    for (const Key key : keys) {
      const ShardedStore::Route r = store_->route(key, view_epoch_);
      if (!r.stale) continue;
      stale = true;
      ++stats_.redirects;
      co_await store_->redirect_probe(n, r.believed).join();
    }
    if (const std::uint64_t now = store_->dir_epoch(); now != view_epoch_) {
      view_epoch_ = now;
      ++stats_.refreshes;
    }
    if (!stale) co_return;
    // Re-check at the refreshed epoch: the directory can move again while
    // a probe is in flight.
  }
}

sim::Process Client::read(dsm::NodeId n, Key key,
                          std::optional<dsm::Word>* out, ReadOptions opts) {
  if (store_->elastic()) co_await sync_route(n, std::vector<Key>(1, key)).join();
  co_await store_->read_op(n, key, out, opts.level).join();
}

sim::Process Client::write(dsm::NodeId n, Key key, dsm::Word value) {
  if (store_->elastic()) co_await sync_route(n, std::vector<Key>(1, key)).join();
  co_await store_->write_op(n, key, value).join();
}

sim::Process Client::txn(dsm::NodeId n, TxnRequest req, TxnResult* result,
                         ReadOptions opts) {
  if (store_->elastic()) {
    co_await sync_route(n, ShardedStore::txn_keys(req)).join();
  }
  co_await store_->txn_op(n, std::move(req), result, opts.level).join();
}

}  // namespace optsync::shard
