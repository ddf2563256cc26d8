//! Control messages of the Robbins-cycle construction (Algorithms 4–6).
//!
//! The construction's coordination — learning the IDs of a newly formed
//! cycle (Algorithm 5), electing the next ear root or detecting completion
//! (Algorithm 6), and the cycle-switch hand-shakes of Algorithm 4(b) — is
//! carried as ordinary simulated messages over the content-oblivious engine
//! of the *current* cycle. This module defines their payload encoding.

use fdn_graph::NodeId;

use crate::error::CoreError;

/// A control message exchanged during the construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMsg {
    /// Algorithm 5: the ID string collected so far, forwarded node-to-node
    /// along the new cycle.
    LearnIdCollect { ids: Vec<NodeId> },
    /// Algorithm 5: the root's final `⟨done, new_cycle⟩` broadcast.
    LearnIdDone { cycle: Vec<NodeId> },
    /// Algorithm 4(b): `⟨EarClosedAt, z⟩`.
    EarClosedAt { z: NodeId },
    /// Algorithm 4(b): `⟨ready⟩`.
    Ready,
    /// Algorithm 4(b): `⟨NewCycle, C_{i+1}⟩`.
    NewCycle { cycle: Vec<NodeId> },
    /// Algorithm 6: `⟨check edges⟩`.
    CheckEdges,
    /// Algorithm 6: `⟨has/no unexplored edges, id⟩`.
    EdgeReport { id: NodeId, has_unexplored: bool },
    /// Algorithm 6: `⟨new root, id⟩`.
    NewRoot { id: NodeId },
    /// Algorithm 6: `⟨completed⟩`.
    Completed,
}

const TAG_COLLECT: u8 = 1;
const TAG_DONE: u8 = 2;
const TAG_EAR_CLOSED: u8 = 3;
const TAG_READY: u8 = 4;
const TAG_NEW_CYCLE: u8 = 5;
const TAG_CHECK_EDGES: u8 = 6;
const TAG_EDGE_REPORT: u8 = 7;
const TAG_NEW_ROOT: u8 = 8;
const TAG_COMPLETED: u8 = 9;

/// Tag bit marking the wide id encoding (u16 little-endian per id). A
/// message carrying only byte-sized ids keeps the historical one-byte-per-id
/// body, so small-graph payloads — and the pulse costs derived from their
/// lengths — are byte-identical to what they were before large-n support.
const WIDE: u8 = 0x80;

pub(crate) fn ids_fit_bytes(ids: &[NodeId]) -> bool {
    ids.iter().all(|id| id.0 <= u8::MAX as u32)
}

pub(crate) fn push_ids(out: &mut Vec<u8>, ids: &[NodeId], wide: bool) {
    for id in ids {
        if wide {
            debug_assert!(id.0 <= u16::MAX as u32);
            out.extend_from_slice(&(id.0 as u16).to_le_bytes());
        } else {
            debug_assert!(id.0 <= u8::MAX as u32);
            out.push(id.0 as u8);
        }
    }
}

pub(crate) fn parse_ids(bytes: &[u8], wide: bool) -> Result<Vec<NodeId>, CoreError> {
    if !wide {
        return Ok(bytes.iter().map(|&b| NodeId(u32::from(b))).collect());
    }
    if !bytes.len().is_multiple_of(2) {
        return Err(CoreError::MalformedWireMessage(format!(
            "wide id list has odd byte length {}",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(2)
        .map(|c| NodeId(u32::from(u16::from_le_bytes([c[0], c[1]]))))
        .collect())
}

impl ControlMsg {
    /// Serializes the control message into a wire payload. Messages whose
    /// ids all fit a byte use the historical narrow body; any larger id
    /// switches the message to the self-describing wide-tag form (the
    /// high bit of the tag byte marks two-byte little-endian ids).
    pub fn to_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let tag = |t: u8, wide: bool| if wide { t | WIDE } else { t };
        match self {
            ControlMsg::LearnIdCollect { ids } => {
                let wide = !ids_fit_bytes(ids);
                out.push(tag(TAG_COLLECT, wide));
                push_ids(&mut out, ids, wide);
            }
            ControlMsg::LearnIdDone { cycle } => {
                let wide = !ids_fit_bytes(cycle);
                out.push(tag(TAG_DONE, wide));
                push_ids(&mut out, cycle, wide);
            }
            ControlMsg::EarClosedAt { z } => {
                let wide = !ids_fit_bytes(&[*z]);
                out.push(tag(TAG_EAR_CLOSED, wide));
                push_ids(&mut out, &[*z], wide);
            }
            ControlMsg::Ready => out.push(TAG_READY),
            ControlMsg::NewCycle { cycle } => {
                let wide = !ids_fit_bytes(cycle);
                out.push(tag(TAG_NEW_CYCLE, wide));
                push_ids(&mut out, cycle, wide);
            }
            ControlMsg::CheckEdges => out.push(TAG_CHECK_EDGES),
            ControlMsg::EdgeReport { id, has_unexplored } => {
                let wide = !ids_fit_bytes(&[*id]);
                out.push(tag(TAG_EDGE_REPORT, wide));
                push_ids(&mut out, &[*id], wide);
                out.push(u8::from(*has_unexplored));
            }
            ControlMsg::NewRoot { id } => {
                let wide = !ids_fit_bytes(&[*id]);
                out.push(tag(TAG_NEW_ROOT, wide));
                push_ids(&mut out, &[*id], wide);
            }
            ControlMsg::Completed => out.push(TAG_COMPLETED),
        }
        out
    }

    /// Parses a wire payload back into a control message.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedWireMessage`] on an unknown tag or a
    /// truncated body.
    pub fn from_payload(bytes: &[u8]) -> Result<Self, CoreError> {
        let (&raw_tag, rest) = bytes
            .split_first()
            .ok_or_else(|| CoreError::MalformedWireMessage("empty control payload".into()))?;
        let wide = raw_tag & WIDE != 0;
        let tag = raw_tag & !WIDE;
        let id_len = if wide { 2 } else { 1 };
        let need = |len: usize| {
            if rest.len() == len {
                Ok(())
            } else {
                Err(CoreError::MalformedWireMessage(format!(
                    "control message tag {tag} expects {len} body bytes, got {}",
                    rest.len()
                )))
            }
        };
        let one_id = |bytes: &[u8]| {
            if wide {
                NodeId(u32::from(u16::from_le_bytes([bytes[0], bytes[1]])))
            } else {
                NodeId(u32::from(bytes[0]))
            }
        };
        match tag {
            TAG_COLLECT => Ok(ControlMsg::LearnIdCollect {
                ids: parse_ids(rest, wide)?,
            }),
            TAG_DONE => Ok(ControlMsg::LearnIdDone {
                cycle: parse_ids(rest, wide)?,
            }),
            TAG_EAR_CLOSED => {
                need(id_len)?;
                Ok(ControlMsg::EarClosedAt { z: one_id(rest) })
            }
            TAG_READY => {
                need(0)?;
                Ok(ControlMsg::Ready)
            }
            TAG_NEW_CYCLE => Ok(ControlMsg::NewCycle {
                cycle: parse_ids(rest, wide)?,
            }),
            TAG_CHECK_EDGES => {
                need(0)?;
                Ok(ControlMsg::CheckEdges)
            }
            TAG_EDGE_REPORT => {
                need(id_len + 1)?;
                Ok(ControlMsg::EdgeReport {
                    id: one_id(rest),
                    has_unexplored: rest[id_len] != 0,
                })
            }
            TAG_NEW_ROOT => {
                need(id_len)?;
                Ok(ControlMsg::NewRoot { id: one_id(rest) })
            }
            TAG_COMPLETED => {
                need(0)?;
                Ok(ControlMsg::Completed)
            }
            other => Err(CoreError::MalformedWireMessage(format!(
                "unknown control tag {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&x| NodeId(x)).collect()
    }

    #[test]
    fn roundtrip_all_variants() {
        let msgs = vec![
            ControlMsg::LearnIdCollect {
                ids: ids(&[0, 3, 7]),
            },
            ControlMsg::LearnIdCollect { ids: vec![] },
            ControlMsg::LearnIdDone {
                cycle: ids(&[1, 2, 3, 1]),
            },
            ControlMsg::EarClosedAt { z: NodeId(9) },
            ControlMsg::Ready,
            ControlMsg::NewCycle {
                cycle: ids(&[0, 1, 2, 0, 3]),
            },
            ControlMsg::CheckEdges,
            ControlMsg::EdgeReport {
                id: NodeId(4),
                has_unexplored: true,
            },
            ControlMsg::EdgeReport {
                id: NodeId(5),
                has_unexplored: false,
            },
            ControlMsg::NewRoot { id: NodeId(2) },
            ControlMsg::Completed,
        ];
        for m in msgs {
            let payload = m.to_payload();
            assert_eq!(
                ControlMsg::from_payload(&payload).unwrap(),
                m,
                "roundtrip failed for {m:?}"
            );
        }
    }

    #[test]
    fn roundtrip_wide_ids() {
        // Any id past the byte range flips the message to the wide encoding;
        // the list variants must round-trip mixed small/large ids too.
        let msgs = vec![
            ControlMsg::LearnIdCollect {
                ids: ids(&[3, 500, 9_999]),
            },
            ControlMsg::LearnIdDone {
                cycle: ids(&[1, 300, 2, 1]),
            },
            ControlMsg::EarClosedAt { z: NodeId(1_000) },
            ControlMsg::NewCycle {
                cycle: ids(&[0, 65_534, 2]),
            },
            ControlMsg::EdgeReport {
                id: NodeId(400),
                has_unexplored: true,
            },
            ControlMsg::NewRoot { id: NodeId(256) },
        ];
        for m in msgs {
            let payload = m.to_payload();
            assert!(payload[0] & WIDE != 0, "wide tag for {m:?}");
            assert_eq!(
                ControlMsg::from_payload(&payload).unwrap(),
                m,
                "roundtrip failed for {m:?}"
            );
        }
    }

    #[test]
    fn small_id_payload_bytes_are_unchanged() {
        // The historical narrow encoding, byte for byte: wide-id support
        // must not change what small graphs put on the wire.
        let m = ControlMsg::LearnIdCollect {
            ids: ids(&[0, 3, 255]),
        };
        assert_eq!(m.to_payload(), vec![TAG_COLLECT, 0, 3, 255]);
        let m = ControlMsg::EdgeReport {
            id: NodeId(4),
            has_unexplored: true,
        };
        assert_eq!(m.to_payload(), vec![TAG_EDGE_REPORT, 4, 1]);
    }

    #[test]
    fn rejects_malformed() {
        assert!(ControlMsg::from_payload(&[]).is_err());
        assert!(ControlMsg::from_payload(&[255]).is_err());
        assert!(ControlMsg::from_payload(&[TAG_EAR_CLOSED]).is_err());
        assert!(ControlMsg::from_payload(&[TAG_EDGE_REPORT, 1]).is_err());
        assert!(ControlMsg::from_payload(&[TAG_READY, 1]).is_err());
    }
}
