#ifndef REPLIDB_MIDDLEWARE_WIRE_REGISTRY_H_
#define REPLIDB_MIDDLEWARE_WIRE_REGISTRY_H_

#include <string>
#include <utility>
#include <vector>

#include "middleware/messages.h"

namespace replidb::middleware {

/// \brief Central inventory of every wire-message struct in messages.h.
///
/// Statement-vs-writeset experiments live or die on every message being
/// accounted for in the wire model; a struct that ships without a registry
/// entry is a message whose size/codec treatment silently drifts from the
/// rest. replicheck's `codec-registry` rule parses messages.h for struct
/// declarations and fails if any is missing from this list, so adding a
/// message forces a conscious decision about its tag and size model here.
///
/// X(StructType, type_tag) — the macro references both the type and the
/// tag, so a renamed struct or tag breaks the build, not just the lint.
#define REPLIDB_WIRE_MESSAGES(X)            \
  X(ExecTxnMsg, kMsgExec)                   \
  X(ExecTxnReply, kMsgExecReply)            \
  X(ClientTxnMsg, kMsgClientTxn)            \
  X(ClientTxnReply, kMsgClientTxnReply)     \
  X(MirrorMsg, kMsgMirror)                  \
  X(MirrorAckMsg, kMsgMirrorAck)            \
  X(FinishTxnMsg, kMsgFinish)               \
  X(FinishTxnReply, kMsgFinishReply)        \
  X(ShipAckMsg, kMsgShipAck)                \
  X(ProgressMsg, kMsgProgress)              \
  X(BackupMsg, kMsgBackup)                  \
  X(BackupReplyMsg, kMsgBackupReply)        \
  X(RestoreMsg, kMsgRestore)                \
  X(RestoreReplyMsg, kMsgRestoreReply)      \
  X(AuditBarrierMsg, kMsgAuditBarrier)      \
  X(AuditReportMsg, kMsgAuditReport)

/// (struct name, wire tag) for every registered message, in registry order.
inline std::vector<std::pair<std::string, std::string>> WireMessageRegistry() {
  std::vector<std::pair<std::string, std::string>> out;
#define REPLIDB_WIRE_ENTRY(type, tag) \
  out.emplace_back(#type, tag);       \
  static_assert(sizeof(type) > 0, "registered message must be a complete type");
  REPLIDB_WIRE_MESSAGES(REPLIDB_WIRE_ENTRY)
#undef REPLIDB_WIRE_ENTRY
  return out;
}

}  // namespace replidb::middleware

#endif  // REPLIDB_MIDDLEWARE_WIRE_REGISTRY_H_
