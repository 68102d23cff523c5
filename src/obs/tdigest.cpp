#include "obs/tdigest.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lvf2::obs {

namespace {

constexpr double kPi = 3.14159265358979323846;

// The canonical t-digest scale function k1: centroids near the tails
// (q -> 0 or 1) are kept small, centroids near the median may grow.
double k_scale(double q, double compression) {
  q = std::min(1.0, std::max(0.0, q));
  return compression / (2.0 * kPi) * std::asin(2.0 * q - 1.0);
}

double k_inverse(double k, double compression) {
  const double s = std::sin(k * 2.0 * kPi / compression);
  return (s + 1.0) / 2.0;
}

}  // namespace

TDigest::TDigest(double compression)
    : compression_(compression < 10.0 ? 10.0 : compression),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void TDigest::add(double x, double w) {
  if (!std::isfinite(x) || !(w > 0.0)) return;
  buffer_.push_back({x, w});
  count_ += w;
  sum_ += x * w;
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
  if (buffer_.size() >=
      kBufferFactor * static_cast<std::size_t>(compression_)) {
    merge_buffer();
  }
}

void TDigest::merge(const TDigest& other) {
  // Fold the operand's full state (compacted and pending) into our
  // buffer; one compress pass rebuilds the combined sketch. The
  // operand order is part of the deterministic input sequence.
  for (const Centroid& c : other.centroids_) {
    if (c.weight > 0.0) buffer_.push_back(c);
  }
  for (const Centroid& c : other.buffer_) {
    if (c.weight > 0.0) buffer_.push_back(c);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  merge_buffer();
}

void TDigest::merge_buffer() const {
  if (buffer_.empty()) return;
  // Stable sort keyed on (mean, weight): equal points cannot be
  // reordered by sort nondeterminism, so the pass below is a pure
  // function of the accumulated multiset + arrival order.
  std::stable_sort(buffer_.begin(), buffer_.end(),
                   [](const Centroid& a, const Centroid& b) {
                     if (a.mean != b.mean) return a.mean < b.mean;
                     return a.weight < b.weight;
                   });
  std::vector<Centroid> merged;
  merged.reserve(centroids_.size() + buffer_.size());
  std::merge(centroids_.begin(), centroids_.end(), buffer_.begin(),
             buffer_.end(), std::back_inserter(merged),
             [](const Centroid& a, const Centroid& b) {
               if (a.mean != b.mean) return a.mean < b.mean;
               return a.weight < b.weight;
             });
  buffer_.clear();

  const double total = count_;
  std::vector<Centroid> out;
  out.reserve(static_cast<std::size_t>(2.0 * compression_) + 8);
  Centroid cur = merged.front();
  double emitted = 0.0;  // weight already committed to `out`
  double q_limit = k_inverse(k_scale(0.0, compression_) + 1.0, compression_);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const Centroid& next = merged[i];
    const double projected = (emitted + cur.weight + next.weight) / total;
    if (projected <= q_limit) {
      // Weighted mean update; weights are positive by construction.
      cur.mean = (cur.mean * cur.weight + next.mean * next.weight) /
                 (cur.weight + next.weight);
      cur.weight += next.weight;
    } else {
      out.push_back(cur);
      emitted += cur.weight;
      q_limit = k_inverse(k_scale(emitted / total, compression_) + 1.0,
                          compression_);
      cur = next;
    }
  }
  out.push_back(cur);
  centroids_ = std::move(out);
}

void TDigest::compress() const { merge_buffer(); }

const std::vector<Centroid>& TDigest::centroids() const {
  merge_buffer();
  return centroids_;
}

double TDigest::quantile(double q) const {
  if (count_ <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  merge_buffer();
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  if (centroids_.size() == 1) return centroids_.front().mean;

  // Piecewise-linear CDF through the centroid midpoints, anchored at
  // the exact min and max.
  const double target = q * count_;
  double prev_mean = min_;
  double prev_cum = 0.0;
  double cum = 0.0;
  for (const Centroid& c : centroids_) {
    const double mid = cum + c.weight / 2.0;
    if (target < mid) {
      const double span = mid - prev_cum;
      const double frac = span > 0.0 ? (target - prev_cum) / span : 0.0;
      return prev_mean + frac * (c.mean - prev_mean);
    }
    prev_mean = c.mean;
    prev_cum = mid;
    cum += c.weight;
  }
  const double span = count_ - prev_cum;
  const double frac = span > 0.0 ? (target - prev_cum) / span : 1.0;
  return prev_mean + frac * (max_ - prev_mean);
}

JsonValue TDigest::to_json() const {
  merge_buffer();
  JsonValue out = json_object();
  out.object.emplace_back("compression", json_number(compression_));
  out.object.emplace_back("count", json_number(count_));
  out.object.emplace_back("sum", json_number(sum_));
  out.object.emplace_back("min", json_number(count_ > 0.0 ? min_ : 0.0));
  out.object.emplace_back("max", json_number(count_ > 0.0 ? max_ : 0.0));
  JsonValue centroids = json_array();
  for (const Centroid& c : centroids_) {
    JsonValue pair = json_array();
    pair.array.push_back(json_number(c.mean));
    pair.array.push_back(json_number(c.weight));
    centroids.array.push_back(std::move(pair));
  }
  out.object.emplace_back("centroids", std::move(centroids));
  return out;
}

std::string TDigest::to_json_text() const {
  return json_write(to_json(), JsonWriteOptions{17});
}

std::optional<TDigest> TDigest::from_json(const JsonValue& doc) {
  if (!doc.is_object()) return std::nullopt;
  const JsonValue* centroids = doc.find("centroids");
  if (centroids == nullptr || !centroids->is_array()) return std::nullopt;
  TDigest digest(doc.number_or("compression", 100.0));
  for (const JsonValue& pair : centroids->array) {
    if (!pair.is_array() || pair.array.size() != 2) return std::nullopt;
    digest.centroids_.push_back(
        {pair.array[0].number, pair.array[1].number});
  }
  digest.count_ = doc.number_or("count", 0.0);
  digest.sum_ = doc.number_or("sum", 0.0);
  if (digest.count_ > 0.0) {
    digest.min_ = doc.number_or("min", 0.0);
    digest.max_ = doc.number_or("max", 0.0);
  }
  return digest;
}

}  // namespace lvf2::obs
