#include "obs/catalog.hpp"

#include "obs/metrics.hpp"

namespace p3s::obs {

void register_catalog(Registry& r) {
  using namespace names;   // NOLINT
  using namespace labels;  // NOLINT
  const auto lat = Histogram::latency_bounds();
  const auto sz = Histogram::size_bounds();

  // Publisher.
  r.counter(kPubPublishTotal, {}, "1", "items published");
  r.histogram(kPubPublishSeconds, {}, "seconds",
              "publish() call: encrypt + submit content + metadata", lat);
  r.histogram(kPubPbeEncryptSeconds, {}, "seconds",
              "HVE encryption of the GUID under the metadata vector", lat);
  r.histogram(kPubAbeEncryptSeconds, {}, "seconds",
              "CP-ABE encryption of (GUID, payload) under the policy", lat);
  r.histogram(kPubPayloadBytes, {}, "bytes", "plaintext payload size", sz);

  // Dissemination server.
  r.counter(kDsPublishesTotal, {}, "1", "metadata publishes accepted");
  r.counter(kDsFanoutTotal, {}, "1", "metadata notifications fanned out");
  r.histogram(kDsFanoutBatch, {}, "1", "subscribers notified per publish",
              Histogram::exponential_bounds(1.0, 2.0, 16));
  r.counter(kDsContentForwardedTotal, {}, "1", "content frames sent to RS");
  r.gauge(kDsSubscribers, {}, "1", "registered subscribers");
  r.gauge(kDsPublishers, {}, "1", "registered publishers");
  r.gauge(kDsSessions, {}, "1", "live secure-channel sessions");
  r.histogram(kDsFanoutSeconds, {}, "seconds",
              "one metadata fanout: seal + send to each subscriber", lat);
  r.counter(kDsBatchFlushesTotal, {}, "1",
            "batched broadcast flushes executed");
  r.counter(kDsCoverTotal, {}, "1", "garbage cover broadcasts injected");
  r.counter(kDsPadBytesTotal, {}, "bytes",
            "pad bytes added to broadcast frames");

  // Repository server.
  r.counter(kRsStoreTotal, {}, "1", "items stored");
  r.histogram(kRsStoredBytes, {}, "bytes", "stored CP-ABE ciphertext size",
              sz);
  r.counter(kRsFetchTotal, {{"status", kStatusOk}}, "1",
            "content requests answered with the ciphertext");
  r.counter(kRsFetchTotal, {{"status", kStatusNotFound}}, "1",
            "content requests for expired/unknown GUIDs");
  r.gauge(kRsItems, {}, "1", "items currently stored");
  r.counter(kRsGcReclaimedTotal, {}, "1", "items reclaimed by TTL GC");

  // PBE token server.
  r.counter(kTsTokensIssuedTotal, {}, "1", "HVE tokens issued");
  r.counter(kTsRejectedTotal, {}, "1", "token requests rejected");
  r.histogram(kTsGentokenSeconds, {}, "seconds", "HVE GenToken runtime", lat);

  // Registration authority.
  r.counter(kAraRegistrationsTotal, {{"role", kRoleSubscriber}}, "1",
            "subscriber registrations");
  r.counter(kAraRegistrationsTotal, {{"role", kRolePublisher}}, "1",
            "publisher registrations");

  // Anonymizing relay.
  r.counter(kAnonForwardedTotal, {}, "1", "requests relayed to a service");
  r.counter(kAnonRepliesTotal, {}, "1", "replies relayed back");
  r.gauge(kAnonPending, {}, "1", "requests awaiting a reply");
  r.gauge(kAnonHeld, {}, "1", "requests held for the next batch flush");
  r.counter(kAnonBatchFlushesTotal, {}, "1", "batch flushes executed");
  r.histogram(kAnonBatchSize, {}, "1",
              "requests (real + decoy) relayed per batch flush",
              Histogram::exponential_bounds(1.0, 2.0, 12));
  r.histogram(kAnonFlushSeconds, {}, "seconds",
              "one batch flush: shuffle, pad, decoy synthesis, sends", lat);
  r.counter(kAnonCoverTotal, {}, "1", "decoy cover fetches injected");
  r.counter(kAnonDecoyRepliesTotal, {}, "1",
            "service replies to decoys absorbed (never relayed)");
  r.counter(kAnonPadBytesTotal, {}, "bytes",
            "pad bytes added to relayed frames");

  // Subscriber.
  r.counter(kSubMetadataReceivedTotal, {}, "1", "metadata broadcasts seen");
  r.counter(kSubMatchAttemptsTotal, {}, "1",
            "tokens evaluated against a broadcast");
  r.counter(kSubMatchHitsTotal, {}, "1", "broadcasts that matched a token");
  r.histogram(kSubMatchSeconds, {}, "seconds",
              "local matching of one broadcast against all tokens", lat);
  r.histogram(kSubDecryptSeconds, {}, "seconds",
              "CP-ABE decryption of a fetched payload", lat);
  r.counter(kSubDeliveriesTotal, {}, "1", "payloads decrypted and delivered");
  r.counter(kSubFetchFailuresTotal, {}, "1",
            "matched items whose fetch returned no payload");
  r.counter(kSubUndecryptableTotal, {}, "1",
            "fetched payloads the attribute key could not decrypt");
  r.counter(kSubTokenRequestsTotal, {}, "1", "token requests sent");
  r.counter(kSubTokenRejectionsTotal, {}, "1", "token requests rejected");

  // Secure channel.
  r.counter(kChanHandshakesTotal, {{"side", kSideClient}}, "1",
            "sessions initiated");
  r.counter(kChanHandshakesTotal, {{"side", kSideServer}}, "1",
            "sessions accepted");
  r.counter(kChanHandshakeFailuresTotal, {}, "1",
            "hello blobs that failed to decrypt");
  r.counter(kChanRecordsSealedTotal, {}, "1", "records sealed");
  r.counter(kChanRecordsOpenedTotal, {}, "1", "records opened");
  r.counter(kChanOpenFailuresTotal, {}, "1",
            "records dropped (replay, reorder, tamper)");
  r.histogram(kChanRecordBytes, {}, "bytes", "sealed record size", sz);

  // Simulation.
  r.counter(kSimEventsTotal, {}, "1", "discrete events executed");
  r.gauge(kSimQueueDepth, {}, "1", "pending events in the engine queue");
  r.counter(kSimFramesTotal, {}, "1", "frames sent through SimNetwork");
  r.histogram(kSimFrameBytes, {}, "bytes",
              "frame length the sender's NIC serializes", sz);

  // Pairing stack.
  r.histogram(kCryptoPairSeconds, {}, "seconds", "single pairing e(P,Q)",
              lat);
  r.histogram(kCryptoPairProductSeconds, {}, "seconds",
              "multi-pairing product, or one miller_multi call (its final "
              "exponentiations are not timed here)",
              lat);
  r.histogram(kCryptoPairProductPairs, {}, "1",
              "(P, Q) pairs per pair_product or miller_multi call",
              Histogram::exponential_bounds(1.0, 2.0, 12));
  r.histogram(kCryptoG1MulSeconds, {}, "seconds",
              "G1 scalar multiplication (wNAF or fixed-base table)", lat);
  r.counter(kCryptoG1FixedBaseTotal, {}, "1",
            "G1 multiplications served by the generator table");
  r.histogram(kCryptoGtPowSeconds, {}, "seconds", "GT exponentiation", lat);
  r.counter(kCryptoGtFixedBaseTotal, {}, "1",
            "GT exponentiations served by the e(g,g) table");
  r.histogram(kCryptoHashToG1Seconds, {}, "seconds",
              "hash-to-G1 (try-and-increment + cofactor clearing)", lat);
  r.histogram(kCryptoHveBatchSeconds, {}, "seconds",
              "hve_match_any: all tokens against one parsed broadcast",
              lat);
  r.histogram(kCryptoHveBatchTokens, {}, "1",
              "tokens evaluated per hve_match_any call",
              Histogram::exponential_bounds(1.0, 2.0, 12));
  r.histogram(kCryptoHvePrepareSeconds, {}, "seconds",
              "hve_match_prepare: parsing one broadcast", lat);

  // Execution layer.
  r.gauge(kExecThreads, {}, "1",
          "threads a loop runs on, the caller included");
  r.counter(kExecParallelForTotal, {}, "1",
            "parallel_for / parallel_find invocations");

  // Injected network faults.
  r.counter(kNetFaultDroppedTotal, {}, "1",
            "frames dropped by a FaultPlan drop decision");
  r.counter(kNetFaultDuplicatedTotal, {}, "1",
            "frames duplicated by a FaultPlan");
  r.counter(kNetFaultDelayedTotal, {}, "1",
            "frames given extra delivery delay by a FaultPlan");
  r.counter(kNetFaultReorderedTotal, {}, "1",
            "deliveries where another in-flight frame overtook the head");
  r.counter(kNetFaultBlackoutDroppedTotal, {}, "1",
            "frames lost to an endpoint blackout window");

  // Reliable request layer.
  r.counter(kClientRetryTotal, {}, "1",
            "requests re-sent after a timeout (publish, token, fetch, sync)");
  r.counter(kClientRetryExhaustedTotal, {}, "1",
            "requests abandoned after the attempt cap (surfaced error)");
  r.counter(kClientRetryReconnectsTotal, {}, "1",
            "channel re-establishments triggered by repeated timeouts");
  r.counter(kClientTimeoutTotal, {}, "1",
            "request deadlines that expired without a response");

  // Adversarial suite (src/attack).
  r.counter(kAttackScenariosTotal, {}, "1", "attack scenarios executed");
  r.counter(kAttackFramesObservedTotal, {}, "1",
            "traffic records ingested by the eavesdropper observer");
  r.counter(kAttackProbesTotal, {}, "1",
            "chosen publications injected by the probe adversary");
  r.counter(kAttackGuessesTotal, {}, "1",
            "adversary guesses evaluated against ground truth");
  r.counter(kAttackGuessesCorrectTotal, {}, "1",
            "adversary guesses that matched ground truth");
  r.gauge(kAttackAdvantageBps, {}, "1",
          "last measured adversary advantage, in basis points");
}

}  // namespace p3s::obs
