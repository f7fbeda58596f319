#include "wrht/net/reconfig_policy.hpp"

#include <algorithm>

namespace wrht::net {

RoundPricer::RoundPricer(ReconfigPolicy policy, Seconds reconfig_delay,
                         Seconds oeo_delay)
    : policy_(policy), reconfig_delay_(reconfig_delay), oeo_delay_(oeo_delay) {}

RoundPricer::Round RoundPricer::price(Seconds serialization, bool retune) {
  Round round;
  round.full_reconfig = reconfig_delay_;
  round.retune = retune;
  bool charged = true;
  switch (policy_) {
    case ReconfigPolicy::kEveryRound:
      round.reconfig = reconfig_delay_;
      break;
    case ReconfigPolicy::kOnRetune:
      charged = retune;
      round.reconfig = retune ? reconfig_delay_ : Seconds(0.0);
      break;
    case ReconfigPolicy::kOverlapped:
      round.reconfig = std::max(Seconds(0.0), reconfig_delay_ - window_);
      charged = round.reconfig.count() > 0.0;
      hidden_ += reconfig_delay_ - round.reconfig;
      break;
  }
  if (charged) ++charges_;
  ++rounds_;
  round.duration = round.reconfig + oeo_delay_ + serialization;
  window_ = oeo_delay_ + serialization;
  return round;
}

Seconds RoundPricer::charged_reconfig() const {
  if (policy_ == ReconfigPolicy::kOverlapped) {
    return Seconds(static_cast<double>(rounds_) * reconfig_delay_.count() -
                   hidden_.count());
  }
  return Seconds(static_cast<double>(charges_) * reconfig_delay_.count());
}

}  // namespace wrht::net
