//! A placement ledger rebuilt from the world's event stream alone.
//!
//! Replaying `BlocksPlaced`, `BlockDropped` and `PeerDeparted` must
//! reproduce, at the end of a run, exactly the host lists the world
//! reports through `archive_hosts`; the event counts must match the
//! world's own counters. Both are checked in `sim.rs`.

use peerback_core::{BackupWorld, PeerId, WorldEvent};

/// At most this many replay errors are kept (the count is exact).
const MAX_ERRORS: usize = 8;

/// Host lists and event counts replayed from a `WorldEvent` stream.
#[derive(Debug, Default)]
pub struct Ledger {
    archives_per_peer: usize,
    /// Hosts of each `(owner, archive)`, indexed `owner * apa + archive`.
    lists: Vec<Vec<PeerId>>,
    /// Σ hosts over `BlocksPlaced` events.
    pub placed: u64,
    /// `JoinCompleted` events.
    pub joins: u64,
    /// `ArchiveLost` events.
    pub losses: u64,
    /// `PeerDeparted` events.
    pub departures: u64,
    /// `EpisodeStarted` events.
    pub episodes: u64,
    /// Events that contradict the ledger (a drop of an unplaced block,
    /// a departure with blocks still attached).
    pub error_count: u64,
    /// The first few of those, described.
    pub errors: Vec<String>,
}

impl Ledger {
    /// An empty ledger for worlds with `archives_per_peer` archives per
    /// peer.
    pub fn new(archives_per_peer: usize) -> Self {
        Ledger {
            archives_per_peer,
            ..Ledger::default()
        }
    }

    fn list(&mut self, owner: PeerId, archive: u8) -> &mut Vec<PeerId> {
        let idx = owner as usize * self.archives_per_peer + archive as usize;
        if idx >= self.lists.len() {
            self.lists.resize_with(idx + 1, Vec::new);
        }
        &mut self.lists[idx]
    }

    fn error(&mut self, what: String) {
        self.error_count += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(what);
        }
    }

    /// Applies one event.
    pub fn apply(&mut self, event: &WorldEvent) {
        match event {
            WorldEvent::BlocksPlaced {
                owner,
                archive,
                hosts,
            } => {
                self.placed += hosts.len() as u64;
                self.list(*owner, *archive).extend_from_slice(hosts);
            }
            WorldEvent::BlockDropped {
                owner,
                archive,
                host,
            } => {
                let list = self.list(*owner, *archive);
                match list.iter().position(|h| h == host) {
                    Some(i) => {
                        list.swap_remove(i);
                    }
                    None => self.error(format!(
                        "drop of block {owner}/{archive} from {host}, which holds none"
                    )),
                }
            }
            WorldEvent::JoinCompleted { .. } => self.joins += 1,
            WorldEvent::EpisodeStarted { .. } => self.episodes += 1,
            WorldEvent::EpisodeCompleted { .. } => {}
            WorldEvent::ArchiveLost { .. } => self.losses += 1,
            WorldEvent::PeerDeparted { peer } => {
                self.departures += 1;
                for a in 0..self.archives_per_peer {
                    let left = self.list(*peer, a as u8).len();
                    if left > 0 {
                        self.error(format!(
                            "peer {peer} departed with {left} blocks of archive {a} attached"
                        ));
                        self.list(*peer, a as u8).clear();
                    }
                }
            }
        }
    }

    /// The hosts the ledger holds for `(owner, archive)`, sorted.
    pub fn hosts(&self, owner: PeerId, archive: u8) -> Vec<PeerId> {
        let idx = owner as usize * self.archives_per_peer + archive as usize;
        let mut hosts = self.lists.get(idx).cloned().unwrap_or_default();
        hosts.sort_unstable();
        hosts
    }

    /// Archives whose ledger host list differs from the world's
    /// (`archive_hosts`), as `(owner, archive)`; slots beyond the
    /// world's allocated ones must hold nothing.
    pub fn diff(&self, world: &BackupWorld) -> Vec<(PeerId, u8)> {
        let mut out = Vec::new();
        let apa = self.archives_per_peer;
        let slots = world
            .peer_slots()
            .max(self.lists.len().div_ceil(apa.max(1)));
        for owner in 0..slots as PeerId {
            for a in 0..apa as u8 {
                let mut truth = if (owner as usize) < world.peer_slots() {
                    world.archive_hosts(owner, a)
                } else {
                    Vec::new()
                };
                truth.sort_unstable();
                if truth != self.hosts(owner, a) {
                    out.push((owner, a));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placed(owner: PeerId, archive: u8, hosts: &[PeerId]) -> WorldEvent {
        WorldEvent::BlocksPlaced {
            owner,
            archive,
            hosts: hosts.to_vec(),
        }
    }

    fn dropped(owner: PeerId, archive: u8, host: PeerId) -> WorldEvent {
        WorldEvent::BlockDropped {
            owner,
            archive,
            host,
        }
    }

    #[test]
    fn placements_and_drops_rebuild_the_host_lists() {
        let mut l = Ledger::new(2);
        l.apply(&placed(3, 1, &[9, 4, 7]));
        l.apply(&placed(3, 0, &[5]));
        l.apply(&dropped(3, 1, 4));
        l.apply(&placed(3, 1, &[8]));
        assert_eq!(l.hosts(3, 1), vec![7, 8, 9]);
        assert_eq!(l.hosts(3, 0), vec![5]);
        assert_eq!(l.hosts(0, 0), Vec::<PeerId>::new());
        assert_eq!(l.placed, 5);
        assert_eq!(l.error_count, 0);
    }

    #[test]
    fn counts_every_event_kind() {
        let mut l = Ledger::new(1);
        l.apply(&WorldEvent::JoinCompleted {
            owner: 1,
            archive: 0,
        });
        l.apply(&WorldEvent::EpisodeStarted {
            owner: 1,
            archive: 0,
            refresh: true,
        });
        l.apply(&WorldEvent::EpisodeCompleted {
            owner: 1,
            archive: 0,
        });
        l.apply(&WorldEvent::ArchiveLost {
            owner: 1,
            archive: 0,
            round: 4,
        });
        l.apply(&WorldEvent::PeerDeparted { peer: 2 });
        assert_eq!((l.joins, l.episodes, l.losses, l.departures), (1, 1, 1, 1));
        assert_eq!(l.error_count, 0);
    }

    #[test]
    fn contradictions_are_errors() {
        let mut l = Ledger::new(1);
        l.apply(&dropped(0, 0, 6));
        l.apply(&placed(2, 0, &[1, 3]));
        l.apply(&WorldEvent::PeerDeparted { peer: 2 });
        assert_eq!(l.error_count, 2);
        assert_eq!(l.errors.len(), 2);
        // The departure wiped the slot, ready for its next occupant.
        assert!(l.hosts(2, 0).is_empty());
    }

    #[test]
    fn a_repeated_host_is_dropped_once_per_event() {
        let mut l = Ledger::new(1);
        l.apply(&placed(0, 0, &[4, 4]));
        l.apply(&dropped(0, 0, 4));
        assert_eq!(l.hosts(0, 0), vec![4]);
    }
}
