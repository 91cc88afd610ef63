//! Integration tests asserting the paper reproductions: every figure check
//! passes, Table 1's measured detection channels match the paper, and B5's
//! Appendix A header forms invert at the header byte counts B5 prints.

use chunks::experiments::{b5_compress, figures, table1};

#[test]
fn all_figures_reproduce() {
    for fig in figures::all_figures() {
        for (desc, passed) in &fig.checks {
            assert!(*passed, "{}: {desc}", fig.figure);
        }
    }
}

#[test]
fn table1_matches_paper() {
    let t = table1::run();
    assert_eq!(t.rows.len(), 14, "all fourteen fields covered");
    for row in &t.rows {
        assert_eq!(
            row.measured, row.paper,
            "field {} detected via {:?}, paper says {:?}",
            row.field, row.measured, row.paper
        );
    }
    assert!(t.matches_paper());
}

#[test]
fn no_corruption_channel_is_undetected() {
    let t = table1::run();
    assert!(t
        .rows
        .iter()
        .all(|r| r.measured != table1::Channel::Undetected));
}

#[test]
fn figure2_chunk_matches_paper_values() {
    let c = figures::figure2_chunk();
    assert_eq!(c.header.conn.id, 0xA);
    assert_eq!(c.header.tpdu.id, 0x51); // 'Q'
    assert_eq!(c.header.ext.id, 0xC);
    assert_eq!(
        (c.header.conn.sn, c.header.tpdu.sn, c.header.ext.sn),
        (36, 0, 24)
    );
    assert_eq!(c.header.len, 7);
}

#[test]
fn b5_header_forms_are_invertible_and_save_the_pinned_bytes() {
    let r = b5_compress::run();
    assert_eq!((r.chunks, r.payload_bytes), (80, 16512));
    let rows: Vec<(&str, usize, bool)> = r
        .rows
        .iter()
        .map(|row| (row.form, row.header_bytes, row.invertible))
        .collect();
    assert_eq!(
        rows,
        [
            ("full fixed-field", 2560, true),
            ("implicit T.ID", 2240, true),
            ("signalled SIZE", 2400, true),
            ("compact (both)", 2080, true),
            ("intra-packet delta", 1542, true),
            ("SN regeneration", 1984, true),
        ]
    );
}
