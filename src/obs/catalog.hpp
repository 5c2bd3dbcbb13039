// The CLOSED metric vocabulary. Every metric the P3S data path emits is
// declared here — and only here — as a compile-time constant; components
// must instrument through these names so no runtime string (interest,
// metadata value, payload, pseudonym, endpoint name) can ever become a
// metric name. scripts/check_docs.sh keeps this file and OBSERVABILITY.md
// in exact sync (names here are the source of truth); tests/obs_test.cpp
// asserts every name passes Registry::valid_name.
//
// Naming: p3s.<component>.<metric>[_total|_seconds|_bytes]. Components:
//   pub  publisher client        sub  subscriber client
//   ds   dissemination server    rs   repository server
//   ts   PBE token server        ara  registration authority
//   anon anonymizing relay       chan secure channel (net/secure)
//   sim  discrete-event engine + simulated network
//   crypto  pairing-stack primitives (Miller loops, scalar mult, GT exp)
//   exec shared thread-pool execution layer (src/exec)
//   net  injected network faults (src/net chaos hooks)
//   client  reliable request layer shared by pub/sub clients
#pragma once

namespace p3s::obs {
class Registry;

namespace names {

// --- publisher (paper §4.3, Fig. 4) ----------------------------------------
inline constexpr char kPubPublishTotal[] = "p3s.pub.publish_total";
inline constexpr char kPubPublishSeconds[] = "p3s.pub.publish_seconds";
inline constexpr char kPubPbeEncryptSeconds[] = "p3s.pub.pbe_encrypt_seconds";
inline constexpr char kPubAbeEncryptSeconds[] = "p3s.pub.abe_encrypt_seconds";
inline constexpr char kPubPayloadBytes[] = "p3s.pub.payload_bytes";

// --- dissemination server (paper §4.1) -------------------------------------
inline constexpr char kDsPublishesTotal[] = "p3s.ds.publishes_total";
inline constexpr char kDsFanoutTotal[] = "p3s.ds.fanout_total";
inline constexpr char kDsFanoutBatch[] = "p3s.ds.fanout_batch";
inline constexpr char kDsContentForwardedTotal[] =
    "p3s.ds.content_forwarded_total";
inline constexpr char kDsSubscribers[] = "p3s.ds.subscribers";
inline constexpr char kDsPublishers[] = "p3s.ds.publishers";
inline constexpr char kDsSessions[] = "p3s.ds.sessions";
inline constexpr char kDsFanoutSeconds[] = "p3s.ds.fanout_seconds";
inline constexpr char kDsBatchFlushesTotal[] = "p3s.ds.batch_flushes_total";
inline constexpr char kDsCoverTotal[] = "p3s.ds.cover_total";
inline constexpr char kDsPadBytesTotal[] = "p3s.ds.pad_bytes_total";

// --- repository server (paper §4.1, §4.3 "Deletion") -----------------------
inline constexpr char kRsStoreTotal[] = "p3s.rs.store_total";
inline constexpr char kRsStoredBytes[] = "p3s.rs.stored_bytes";
inline constexpr char kRsFetchTotal[] = "p3s.rs.fetch_total";  // {status=}
inline constexpr char kRsItems[] = "p3s.rs.items";
inline constexpr char kRsGcReclaimedTotal[] = "p3s.rs.gc_reclaimed_total";

// --- PBE token server (paper §4.3, Fig. 3) ---------------------------------
inline constexpr char kTsTokensIssuedTotal[] = "p3s.ts.tokens_issued_total";
inline constexpr char kTsRejectedTotal[] = "p3s.ts.rejected_total";
inline constexpr char kTsGentokenSeconds[] = "p3s.ts.gentoken_seconds";

// --- registration authority (paper §4.2) -----------------------------------
inline constexpr char kAraRegistrationsTotal[] =
    "p3s.ara.registrations_total";  // {role=}

// --- anonymizing relay (paper §4.1; hardening DESIGN.md §11) ---------------
inline constexpr char kAnonForwardedTotal[] = "p3s.anon.forwarded_total";
inline constexpr char kAnonRepliesTotal[] = "p3s.anon.replies_total";
inline constexpr char kAnonPending[] = "p3s.anon.pending";
inline constexpr char kAnonHeld[] = "p3s.anon.held";
inline constexpr char kAnonBatchFlushesTotal[] =
    "p3s.anon.batch_flushes_total";
inline constexpr char kAnonBatchSize[] = "p3s.anon.batch_size";
inline constexpr char kAnonFlushSeconds[] = "p3s.anon.flush_seconds";
inline constexpr char kAnonCoverTotal[] = "p3s.anon.cover_total";
inline constexpr char kAnonDecoyRepliesTotal[] =
    "p3s.anon.decoy_replies_total";
inline constexpr char kAnonPadBytesTotal[] = "p3s.anon.pad_bytes_total";

// --- subscriber (paper §4.3, Figs. 3 & 4) ----------------------------------
inline constexpr char kSubMetadataReceivedTotal[] =
    "p3s.sub.metadata_received_total";
inline constexpr char kSubMatchAttemptsTotal[] =
    "p3s.sub.match_attempts_total";
inline constexpr char kSubMatchHitsTotal[] = "p3s.sub.match_hits_total";
inline constexpr char kSubMatchSeconds[] = "p3s.sub.match_seconds";
inline constexpr char kSubDecryptSeconds[] = "p3s.sub.decrypt_seconds";
inline constexpr char kSubDeliveriesTotal[] = "p3s.sub.deliveries_total";
inline constexpr char kSubFetchFailuresTotal[] =
    "p3s.sub.fetch_failures_total";
inline constexpr char kSubUndecryptableTotal[] =
    "p3s.sub.undecryptable_total";
inline constexpr char kSubTokenRequestsTotal[] =
    "p3s.sub.token_requests_total";
inline constexpr char kSubTokenRejectionsTotal[] =
    "p3s.sub.token_rejections_total";

// --- secure channel (paper §4.1 "TLS tunnels") -----------------------------
inline constexpr char kChanHandshakesTotal[] =
    "p3s.chan.handshakes_total";  // {side=}
inline constexpr char kChanHandshakeFailuresTotal[] =
    "p3s.chan.handshake_failures_total";
inline constexpr char kChanRecordsSealedTotal[] =
    "p3s.chan.records_sealed_total";
inline constexpr char kChanRecordsOpenedTotal[] =
    "p3s.chan.records_opened_total";
inline constexpr char kChanOpenFailuresTotal[] =
    "p3s.chan.open_failures_total";
inline constexpr char kChanRecordBytes[] = "p3s.chan.record_bytes";

// --- discrete-event simulation (§6.2 experiments) --------------------------
inline constexpr char kSimEventsTotal[] = "p3s.sim.events_total";
inline constexpr char kSimQueueDepth[] = "p3s.sim.queue_depth";
inline constexpr char kSimFramesTotal[] = "p3s.sim.frames_total";
inline constexpr char kSimFrameBytes[] = "p3s.sim.frame_bytes";

// --- pairing stack (fast-path primitives; DESIGN.md "fast path") -----------
inline constexpr char kCryptoPairSeconds[] = "p3s.crypto.pair_seconds";
inline constexpr char kCryptoPairProductSeconds[] =
    "p3s.crypto.pair_product_seconds";
inline constexpr char kCryptoPairProductPairs[] =
    "p3s.crypto.pair_product_pairs";
inline constexpr char kCryptoG1MulSeconds[] = "p3s.crypto.g1_mul_seconds";
inline constexpr char kCryptoG1FixedBaseTotal[] =
    "p3s.crypto.g1_fixed_base_total";
inline constexpr char kCryptoGtPowSeconds[] = "p3s.crypto.gt_pow_seconds";
inline constexpr char kCryptoGtFixedBaseTotal[] =
    "p3s.crypto.gt_fixed_base_total";
inline constexpr char kCryptoHashToG1Seconds[] =
    "p3s.crypto.hash_to_g1_seconds";
inline constexpr char kCryptoHveBatchSeconds[] =
    "p3s.crypto.hve_batch_seconds";
inline constexpr char kCryptoHveBatchTokens[] =
    "p3s.crypto.hve_batch_tokens";
inline constexpr char kCryptoHvePrepareSeconds[] =
    "p3s.crypto.hve_prepare_seconds";

// --- execution layer (src/exec; DESIGN.md "execution layer") ---------------
inline constexpr char kExecThreads[] = "p3s.exec.threads";
inline constexpr char kExecParallelForTotal[] =
    "p3s.exec.parallel_for_total";

// --- injected network faults (src/net FaultPlan; DESIGN.md "Reliability") --
inline constexpr char kNetFaultDroppedTotal[] = "p3s.net.fault_dropped_total";
inline constexpr char kNetFaultDuplicatedTotal[] =
    "p3s.net.fault_duplicated_total";
inline constexpr char kNetFaultDelayedTotal[] = "p3s.net.fault_delayed_total";
inline constexpr char kNetFaultReorderedTotal[] =
    "p3s.net.fault_reordered_total";
inline constexpr char kNetFaultBlackoutDroppedTotal[] =
    "p3s.net.fault_blackout_dropped_total";

// --- adversarial suite (src/attack; DESIGN.md §11) -------------------------
// Emitted by the attack harness, not the data path: how much attack traffic
// ran and how well the adversary did, so hardening regressions show up in
// dashboards the same way perf regressions do.
inline constexpr char kAttackScenariosTotal[] = "p3s.attack.scenarios_total";
inline constexpr char kAttackFramesObservedTotal[] =
    "p3s.attack.frames_observed_total";
inline constexpr char kAttackProbesTotal[] = "p3s.attack.probes_total";
inline constexpr char kAttackGuessesTotal[] = "p3s.attack.guesses_total";
inline constexpr char kAttackGuessesCorrectTotal[] =
    "p3s.attack.guesses_correct_total";
inline constexpr char kAttackAdvantageBps[] = "p3s.attack.advantage_bps";

// --- reliable request layer (pub/sub clients; DESIGN.md "Reliability") -----
inline constexpr char kClientRetryTotal[] = "p3s.client.retry_total";
inline constexpr char kClientRetryExhaustedTotal[] =
    "p3s.client.retry_exhausted_total";
inline constexpr char kClientRetryReconnectsTotal[] =
    "p3s.client.retry_reconnects_total";
inline constexpr char kClientTimeoutTotal[] = "p3s.client.timeout_total";

}  // namespace names

// Closed label value sets (label values are vocabulary too).
namespace labels {
inline constexpr char kStatusOk[] = "ok";
inline constexpr char kStatusNotFound[] = "notfound";
inline constexpr char kRoleSubscriber[] = "subscriber";
inline constexpr char kRolePublisher[] = "publisher";
inline constexpr char kSideClient[] = "client";
inline constexpr char kSideServer[] = "server";
}  // namespace labels

/// Register the full catalogue (with units, help, histogram bounds) into
/// `registry`. Registry::global() does this automatically; a snapshot
/// therefore always shows the complete schema, zeros included.
void register_catalog(Registry& registry);

}  // namespace p3s::obs
