#include "metrics.h"

#include <utility>

#include "common/status.h"

namespace anaheim::obs {

const MetricsSnapshot::Entry *
MetricsSnapshot::find(const std::string &name) const
{
    for (const Entry &entry : entries) {
        if (entry.name == name)
            return &entry;
    }
    return nullptr;
}

struct MetricsRegistry::Instrument {
    const char *kind = "";
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
};

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry *registry = new MetricsRegistry();
    // Leaked deliberately: call sites cache instrument references in
    // function-local statics whose teardown order is unspecified.
    return *registry;
}

MetricsRegistry::Instrument &
MetricsRegistry::lookup(const std::string &name, const char *kind)
{
    auto it = instruments_.find(name);
    if (it == instruments_.end()) {
        auto instrument = std::make_unique<Instrument>();
        instrument->kind = kind;
        it = instruments_.emplace(name, std::move(instrument)).first;
    }
    ANAHEIM_CHECK(std::string(it->second->kind) == kind,
                  InvalidArgument, "metric '", name,
                  "' already registered as a ", it->second->kind,
                  ", requested as a ", kind);
    return *it->second;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Instrument &instrument = lookup(name, "counter");
    if (!instrument.counter)
        instrument.counter = std::make_unique<Counter>();
    return *instrument.counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Instrument &instrument = lookup(name, "gauge");
    if (!instrument.gauge)
        instrument.gauge = std::make_unique<Gauge>();
    return *instrument.gauge;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    snap.entries.reserve(instruments_.size());
    for (const auto &[name, instrument] : instruments_) {
        MetricsSnapshot::Entry entry;
        entry.name = name;
        entry.kind = instrument->kind;
        if (instrument->counter) {
            entry.value =
                static_cast<double>(instrument->counter->value());
            entry.count = instrument->counter->value();
        } else if (instrument->gauge) {
            entry.value = instrument->gauge->value();
        }
        snap.entries.push_back(std::move(entry));
    }
    // std::map iteration is already name-sorted; keep the invariant
    // explicit for readers of MetricsSnapshot.
    return snap;
}

size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return instruments_.size();
}

void
MetricsRegistry::resetAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, instrument] : instruments_) {
        (void)name;
        if (instrument->counter)
            instrument->counter->reset();
        if (instrument->gauge)
            instrument->gauge->reset();
    }
}

} // namespace anaheim::obs
