//! The typed query AST and its canonical wire form.
//!
//! Every query canonicalises to a compact JSON object with fields in a
//! fixed order and `None` filters omitted. The canonical form serves
//! three masters at once: it is the **cache key** (two spellings of the
//! same question share one cache entry), it is **echoed** back in every
//! response so clients see what was actually answered, and it is itself
//! a **valid wire query** — `wire::decode(query.canonical())` returns
//! the original query (property-tested).

use lfp_analysis::json::escape_into;
use lfp_analysis::path_corpus::LabelSource;
use lfp_analysis::us_study::UsSlice;
use lfp_topo::Continent;
use std::fmt::Write as _;

/// Row filters shared by every path-level query. All fields optional;
/// an empty selection means "every path in the corpus".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Selection {
    /// Only paths whose vantage sits in this AS.
    pub src_as: Option<u32>,
    /// Only paths whose destination sits in this AS.
    pub dst_as: Option<u32>,
    /// Only paths from this source dataset (by name, e.g. `"RIPE-2"` or
    /// `"ITDK-derived"`).
    pub source: Option<String>,
    /// Only paths with at least this many router hops.
    pub min_hops: Option<u16>,
    /// Only paths with at most this many router hops.
    pub max_hops: Option<u16>,
    /// Only paths in this US slice (§6.2).
    pub slice: Option<UsSlice>,
}

impl Selection {
    /// True when no filter is set (the whole corpus).
    pub fn is_empty(&self) -> bool {
        *self == Selection::default()
    }

    /// Append this selection's canonical fields (leading comma included
    /// before each present field).
    fn write_canonical_fields(&self, out: &mut String) {
        if let Some(src_as) = self.src_as {
            out.push_str(",\"src_as\":");
            let _ = write!(out, "{src_as}");
        }
        if let Some(dst_as) = self.dst_as {
            out.push_str(",\"dst_as\":");
            let _ = write!(out, "{dst_as}");
        }
        if let Some(source) = &self.source {
            out.push_str(",\"source\":\"");
            escape_into(out, source);
            out.push('"');
        }
        if let Some(min_hops) = self.min_hops {
            out.push_str(",\"min_hops\":");
            let _ = write!(out, "{min_hops}");
        }
        if let Some(max_hops) = self.max_hops {
            out.push_str(",\"max_hops\":");
            let _ = write!(out, "{max_hops}");
        }
        if let Some(slice) = self.slice {
            out.push_str(",\"slice\":\"");
            out.push_str(slice_name(slice));
            out.push('"');
        }
    }
}

/// One question against a measured world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Vendor mix of identified routers inside one AS (§5): which vendors
    /// does this provider run, under LFP or SNMPv3 identification?
    VendorMixAs {
        /// The provider's AS number.
        as_id: u32,
        /// Identification method the counts come from.
        method: LabelSource,
    },
    /// Vendor mix aggregated over every AS registered on a continent
    /// (Figure 21's regional market view).
    VendorMixRegion {
        /// The region, by paper abbreviation.
        region: Continent,
        /// Identification method the counts come from.
        method: LabelSource,
    },
    /// Path vendor diversity over a selection (§6, Figures 11–14):
    /// identified paths, mean distinct vendors, multi-vendor share, top
    /// vendor combinations. `src_as`/`dst_as` in the selection make this
    /// the paper's per-AS-pair question.
    PathDiversity {
        /// Row filters.
        selection: Selection,
    },
    /// The vendor hand-off (transition) matrix over a selection's
    /// identified-hop subsequences.
    Transitions {
        /// Row filters.
        selection: Selection,
    },
    /// ECDF summary of the longest same-vendor run per path.
    LongestRuns {
        /// Row filters.
        selection: Selection,
    },
    /// What is queryable: sources, corpus size, sample AS ids. Clients
    /// (and the load generator) bootstrap from this.
    Catalog,
}

impl Query {
    /// The canonical compact-JSON form (cache key, response echo, and a
    /// valid wire query).
    pub fn canonical(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write_canonical(None, &mut out);
        out
    }

    /// The canonical form tagged with a serving epoch: the same compact
    /// JSON with a trailing `"epoch"` field. This is what a
    /// [`QueryEngine`](crate::QueryEngine) caches under and echoes —
    /// tagging is what guarantees a result rendered at one epoch can
    /// never be served from the cache at another. Still a valid wire
    /// request: the decoder accepts (and ignores) the `epoch` field, so
    /// replaying an echoed query asks the same question again.
    pub fn canonical_at(&self, epoch: u64) -> String {
        let mut out = String::with_capacity(80);
        self.write_canonical(Some(epoch), &mut out);
        out
    }

    /// Append the canonical form to `out` — tagged with `epoch` when one
    /// is given ([`canonical_at`](Query::canonical_at)), bare otherwise
    /// ([`canonical`](Query::canonical)). The one writer behind both,
    /// and behind the key [`wire::decode_to_key`](crate::wire::decode_to_key)
    /// writes for the serving loop's cache probe.
    pub fn write_canonical(&self, epoch: Option<u64>, out: &mut String) {
        out.push_str("{\"query\":\"");
        match self {
            Query::VendorMixAs { as_id, method } => {
                out.push_str("vendor_mix\",\"as\":");
                let _ = write!(out, "{as_id}");
                out.push_str(",\"method\":\"");
                out.push_str(method_name(*method));
                out.push('"');
            }
            Query::VendorMixRegion { region, method } => {
                out.push_str("vendor_mix\",\"region\":\"");
                out.push_str(region.abbrev());
                out.push_str("\",\"method\":\"");
                out.push_str(method_name(*method));
                out.push('"');
            }
            Query::PathDiversity { selection } => {
                out.push_str("path_diversity\"");
                selection.write_canonical_fields(out);
            }
            Query::Transitions { selection } => {
                out.push_str("transitions\"");
                selection.write_canonical_fields(out);
            }
            Query::LongestRuns { selection } => {
                out.push_str("longest_runs\"");
                selection.write_canonical_fields(out);
            }
            Query::Catalog => out.push_str("catalog\""),
        }
        if let Some(epoch) = epoch {
            out.push_str(",\"epoch\":");
            let _ = write!(out, "{epoch}");
        }
        out.push('}');
    }
}

/// Wire name of an identification method.
pub fn method_name(method: LabelSource) -> &'static str {
    match method {
        LabelSource::Lfp => "lfp",
        LabelSource::Snmp => "snmp",
    }
}

/// Parse an identification method's wire name.
pub fn method_by_name(name: &str) -> Option<LabelSource> {
    match name {
        "lfp" => Some(LabelSource::Lfp),
        "snmp" => Some(LabelSource::Snmp),
        _ => None,
    }
}

/// Wire name of a US slice.
pub fn slice_name(slice: UsSlice) -> &'static str {
    match slice {
        UsSlice::IntraUs => "intra-us",
        UsSlice::InterUs => "inter-us",
        UsSlice::Other => "other",
    }
}

/// Parse a US slice's wire name.
pub fn slice_by_name(name: &str) -> Option<UsSlice> {
    match name {
        "intra-us" => Some(UsSlice::IntraUs),
        "inter-us" => Some(UsSlice::InterUs),
        "other" => Some(UsSlice::Other),
        _ => None,
    }
}

/// Parse a continent's paper abbreviation.
pub fn region_by_abbrev(abbrev: &str) -> Option<Continent> {
    Continent::ALL
        .into_iter()
        .find(|region| region.abbrev() == abbrev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_is_stable_and_omits_empty_filters() {
        let query = Query::PathDiversity {
            selection: Selection {
                src_as: Some(3),
                dst_as: Some(9),
                ..Selection::default()
            },
        };
        assert_eq!(
            query.canonical(),
            "{\"query\":\"path_diversity\",\"src_as\":3,\"dst_as\":9}"
        );
        let bare = Query::LongestRuns {
            selection: Selection::default(),
        };
        assert_eq!(bare.canonical(), "{\"query\":\"longest_runs\"}");
        let full = Query::Transitions {
            selection: Selection {
                src_as: Some(1),
                dst_as: Some(2),
                source: Some("RIPE-1".to_string()),
                min_hops: Some(3),
                max_hops: Some(12),
                slice: Some(UsSlice::IntraUs),
            },
        };
        assert_eq!(
            full.canonical(),
            "{\"query\":\"transitions\",\"src_as\":1,\"dst_as\":2,\"source\":\"RIPE-1\",\
             \"min_hops\":3,\"max_hops\":12,\"slice\":\"intra-us\"}"
        );
    }

    #[test]
    fn canonical_distinguishes_vendor_mix_groups_and_methods() {
        let by_as = Query::VendorMixAs {
            as_id: 12,
            method: LabelSource::Lfp,
        };
        let by_region = Query::VendorMixRegion {
            region: Continent::Europe,
            method: LabelSource::Snmp,
        };
        assert_eq!(
            by_as.canonical(),
            "{\"query\":\"vendor_mix\",\"as\":12,\"method\":\"lfp\"}"
        );
        assert_eq!(
            by_region.canonical(),
            "{\"query\":\"vendor_mix\",\"region\":\"EU\",\"method\":\"snmp\"}"
        );
        assert_ne!(by_as.canonical(), by_region.canonical());
    }

    #[test]
    fn canonical_at_appends_the_epoch_tag() {
        let query = Query::PathDiversity {
            selection: Selection {
                src_as: Some(3),
                dst_as: Some(9),
                ..Selection::default()
            },
        };
        assert_eq!(
            query.canonical_at(7),
            "{\"query\":\"path_diversity\",\"src_as\":3,\"dst_as\":9,\"epoch\":7}"
        );
        assert_eq!(
            Query::Catalog.canonical_at(0),
            "{\"query\":\"catalog\",\"epoch\":0}"
        );
        // Distinct epochs never share a cache key.
        assert_ne!(query.canonical_at(0), query.canonical_at(1));
        assert_ne!(query.canonical(), query.canonical_at(0));
    }

    #[test]
    fn write_canonical_appends_and_matches_the_owned_forms() {
        let query = Query::Transitions {
            selection: Selection {
                source: Some("quote\"d\u{2028}".to_string()),
                min_hops: Some(0),
                ..Selection::default()
            },
        };
        let mut out = String::from("prefix");
        query.write_canonical(Some(3), &mut out);
        assert_eq!(out, format!("prefix{}", query.canonical_at(3)));
        assert_eq!(
            query.canonical(),
            "{\"query\":\"transitions\",\"source\":\"quote\\\"d\\u2028\",\"min_hops\":0}"
        );
    }

    #[test]
    fn names_round_trip() {
        for method in [LabelSource::Lfp, LabelSource::Snmp] {
            assert_eq!(method_by_name(method_name(method)), Some(method));
        }
        for slice in [UsSlice::IntraUs, UsSlice::InterUs, UsSlice::Other] {
            assert_eq!(slice_by_name(slice_name(slice)), Some(slice));
        }
        for region in Continent::ALL {
            assert_eq!(region_by_abbrev(region.abbrev()), Some(region));
        }
        assert_eq!(method_by_name("banner"), None);
        assert_eq!(slice_by_name("mars"), None);
        assert_eq!(region_by_abbrev("XX"), None);
    }
}
