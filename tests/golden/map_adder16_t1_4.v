// Generated by t1map: 4 phases, horizon 17
// MappedCircuit: 32 inputs, 2 gates, 15 T1 cells, 17 outputs
module sfq_top(input clk, input pi0, input pi1, input pi2, input pi3, input pi4, input pi5, input pi6, input pi7, input pi8, input pi9, input pi10, input pi11, input pi12, input pi13, input pi14, input pi15, input pi16, input pi17, input pi18, input pi19, input pi20, input pi21, input pi22, input pi23, input pi24, input pi25, input pi26, input pi27, input pi28, input pi29, input pi30, input pi31, output po0, output po1, output po2, output po3, output po4, output po5, output po6, output po7, output po8, output po9, output po10, output po11, output po12, output po13, output po14, output po15, output po16);
  wire n32;
  wire n33;
  wire n34;
  wire n34_p1;
  wire n34_p2;
  wire n35;
  wire n35_p1;
  wire n35_p2;
  wire n36;
  wire n36_p1;
  wire n36_p2;
  wire n37;
  wire n37_p1;
  wire n37_p2;
  wire n38;
  wire n38_p1;
  wire n38_p2;
  wire n39;
  wire n39_p1;
  wire n39_p2;
  wire n40;
  wire n40_p1;
  wire n40_p2;
  wire n41;
  wire n41_p1;
  wire n41_p2;
  wire n42;
  wire n42_p1;
  wire n42_p2;
  wire n43;
  wire n43_p1;
  wire n43_p2;
  wire n44;
  wire n44_p1;
  wire n44_p2;
  wire n45;
  wire n45_p1;
  wire n45_p2;
  wire n46;
  wire n46_p1;
  wire n46_p2;
  wire n47;
  wire n47_p1;
  wire n47_p2;
  wire n48;
  wire n48_p1;
  wire n48_p2;
  wire n1_d2;
  wire n2_d2;
  wire n3_d3;
  wire n4_d4;
  wire n5_d4;
  wire n6_d4;
  wire n6_d6;
  wire n7_d4;
  wire n7_d7;
  wire n8_d4;
  wire n8_d8;
  wire n9_d4;
  wire n9_d8;
  wire n10_d4;
  wire n10_d8;
  wire n10_d10;
  wire n11_d4;
  wire n11_d8;
  wire n11_d11;
  wire n12_d4;
  wire n12_d8;
  wire n12_d12;
  wire n13_d4;
  wire n13_d8;
  wire n13_d12;
  wire n14_d4;
  wire n14_d8;
  wire n14_d12;
  wire n14_d14;
  wire n15_d4;
  wire n15_d8;
  wire n15_d12;
  wire n15_d15;
  wire n19_d2;
  wire n20_d3;
  wire n21_d3;
  wire n22_d4;
  wire n23_d4;
  wire n23_d6;
  wire n24_d4;
  wire n24_d7;
  wire n25_d4;
  wire n25_d7;
  wire n26_d4;
  wire n26_d8;
  wire n27_d4;
  wire n27_d8;
  wire n27_d10;
  wire n28_d4;
  wire n28_d8;
  wire n28_d11;
  wire n29_d4;
  wire n29_d8;
  wire n29_d11;
  wire n30_d4;
  wire n30_d8;
  wire n30_d12;
  wire n31_d4;
  wire n31_d8;
  wire n31_d12;
  wire n31_d14;
  wire n32_d6;
  wire n32_d10;
  wire n32_d14;
  wire n34_d7;
  wire n34_d11;
  wire n34_d15;
  wire n35_d8;
  wire n35_d12;
  wire n35_d16;
  wire n36_d9;
  wire n36_d13;
  wire n36_d17;
  wire n37_d10;
  wire n37_d14;
  wire n38_d11;
  wire n38_d15;
  wire n39_d12;
  wire n39_d16;
  wire n40_d13;
  wire n40_d17;
  wire n41_d14;
  wire n42_d15;
  wire n43_d16;
  wire n44_d17;
  sfq_gate2 #(.TT(4'b1001)) g32_s2(.clk(clk), .a(pi0), .b(pi16), .q(n32));
  sfq_gate2 #(.TT(4'b1000)) g33_s1(.clk(clk), .a(pi0), .b(pi16), .q(n33));
  sfq_t1 t1_34_s3(.clk(clk), .t0(n1_d2), .t1(pi17), .t2(n33), .s(n34), .c(n34_p1), .q(n34_p2));
  sfq_t1 t1_35_s4(.clk(clk), .t0(n2_d2), .t1(pi18), .t2(n34_p1), .s(n35), .c(n35_p1), .q(n35_p2));
  sfq_t1 t1_36_s5(.clk(clk), .t0(n3_d3), .t1(n19_d2), .t2(n35_p1), .s(n36), .c(n36_p1), .q(n36_p2));
  sfq_t1 t1_37_s6(.clk(clk), .t0(n4_d4), .t1(n20_d3), .t2(n36_p1), .s(n37), .c(n37_p1), .q(n37_p2));
  sfq_t1 t1_38_s7(.clk(clk), .t0(n5_d4), .t1(n21_d3), .t2(n37_p1), .s(n38), .c(n38_p1), .q(n38_p2));
  sfq_t1 t1_39_s8(.clk(clk), .t0(n6_d6), .t1(n22_d4), .t2(n38_p1), .s(n39), .c(n39_p1), .q(n39_p2));
  sfq_t1 t1_40_s9(.clk(clk), .t0(n7_d7), .t1(n23_d6), .t2(n39_p1), .s(n40), .c(n40_p1), .q(n40_p2));
  sfq_t1 t1_41_s10(.clk(clk), .t0(n8_d8), .t1(n24_d7), .t2(n40_p1), .s(n41), .c(n41_p1), .q(n41_p2));
  sfq_t1 t1_42_s11(.clk(clk), .t0(n9_d8), .t1(n25_d7), .t2(n41_p1), .s(n42), .c(n42_p1), .q(n42_p2));
  sfq_t1 t1_43_s12(.clk(clk), .t0(n10_d10), .t1(n26_d8), .t2(n42_p1), .s(n43), .c(n43_p1), .q(n43_p2));
  sfq_t1 t1_44_s13(.clk(clk), .t0(n11_d11), .t1(n27_d10), .t2(n43_p1), .s(n44), .c(n44_p1), .q(n44_p2));
  sfq_t1 t1_45_s14(.clk(clk), .t0(n12_d12), .t1(n28_d11), .t2(n44_p1), .s(n45), .c(n45_p1), .q(n45_p2));
  sfq_t1 t1_46_s15(.clk(clk), .t0(n13_d12), .t1(n29_d11), .t2(n45_p1), .s(n46), .c(n46_p1), .q(n46_p2));
  sfq_t1 t1_47_s16(.clk(clk), .t0(n14_d14), .t1(n30_d12), .t2(n46_p1), .s(n47), .c(n47_p1), .q(n47_p2));
  sfq_t1 t1_48_s17(.clk(clk), .t0(n15_d15), .t1(n31_d14), .t2(n47_p1), .s(n48), .c(n48_p1), .q(n48_p2));
  sfq_dff dff_n1_2_s2(.clk(clk), .d(pi1), .q(n1_d2)); // gap 2
  sfq_dff dff_n2_2_s2(.clk(clk), .d(pi2), .q(n2_d2)); // gap 2
  sfq_dff dff_n3_3_s3(.clk(clk), .d(pi3), .q(n3_d3)); // gap 3
  sfq_dff dff_n4_4_s4(.clk(clk), .d(pi4), .q(n4_d4)); // gap 4
  sfq_dff dff_n5_4_s4(.clk(clk), .d(pi5), .q(n5_d4)); // gap 4
  sfq_dff dff_n6_4_s4(.clk(clk), .d(pi6), .q(n6_d4)); // gap 4
  sfq_dff dff_n6_6_s6(.clk(clk), .d(n6_d4), .q(n6_d6)); // gap 2
  sfq_dff dff_n7_4_s4(.clk(clk), .d(pi7), .q(n7_d4)); // gap 4
  sfq_dff dff_n7_7_s7(.clk(clk), .d(n7_d4), .q(n7_d7)); // gap 3
  sfq_dff dff_n8_4_s4(.clk(clk), .d(pi8), .q(n8_d4)); // gap 4
  sfq_dff dff_n8_8_s8(.clk(clk), .d(n8_d4), .q(n8_d8)); // gap 4
  sfq_dff dff_n9_4_s4(.clk(clk), .d(pi9), .q(n9_d4)); // gap 4
  sfq_dff dff_n9_8_s8(.clk(clk), .d(n9_d4), .q(n9_d8)); // gap 4
  sfq_dff dff_n10_4_s4(.clk(clk), .d(pi10), .q(n10_d4)); // gap 4
  sfq_dff dff_n10_8_s8(.clk(clk), .d(n10_d4), .q(n10_d8)); // gap 4
  sfq_dff dff_n10_10_s10(.clk(clk), .d(n10_d8), .q(n10_d10)); // gap 2
  sfq_dff dff_n11_4_s4(.clk(clk), .d(pi11), .q(n11_d4)); // gap 4
  sfq_dff dff_n11_8_s8(.clk(clk), .d(n11_d4), .q(n11_d8)); // gap 4
  sfq_dff dff_n11_11_s11(.clk(clk), .d(n11_d8), .q(n11_d11)); // gap 3
  sfq_dff dff_n12_4_s4(.clk(clk), .d(pi12), .q(n12_d4)); // gap 4
  sfq_dff dff_n12_8_s8(.clk(clk), .d(n12_d4), .q(n12_d8)); // gap 4
  sfq_dff dff_n12_12_s12(.clk(clk), .d(n12_d8), .q(n12_d12)); // gap 4
  sfq_dff dff_n13_4_s4(.clk(clk), .d(pi13), .q(n13_d4)); // gap 4
  sfq_dff dff_n13_8_s8(.clk(clk), .d(n13_d4), .q(n13_d8)); // gap 4
  sfq_dff dff_n13_12_s12(.clk(clk), .d(n13_d8), .q(n13_d12)); // gap 4
  sfq_dff dff_n14_4_s4(.clk(clk), .d(pi14), .q(n14_d4)); // gap 4
  sfq_dff dff_n14_8_s8(.clk(clk), .d(n14_d4), .q(n14_d8)); // gap 4
  sfq_dff dff_n14_12_s12(.clk(clk), .d(n14_d8), .q(n14_d12)); // gap 4
  sfq_dff dff_n14_14_s14(.clk(clk), .d(n14_d12), .q(n14_d14)); // gap 2
  sfq_dff dff_n15_4_s4(.clk(clk), .d(pi15), .q(n15_d4)); // gap 4
  sfq_dff dff_n15_8_s8(.clk(clk), .d(n15_d4), .q(n15_d8)); // gap 4
  sfq_dff dff_n15_12_s12(.clk(clk), .d(n15_d8), .q(n15_d12)); // gap 4
  sfq_dff dff_n15_15_s15(.clk(clk), .d(n15_d12), .q(n15_d15)); // gap 3
  sfq_dff dff_n19_2_s2(.clk(clk), .d(pi19), .q(n19_d2)); // gap 2
  sfq_dff dff_n20_3_s3(.clk(clk), .d(pi20), .q(n20_d3)); // gap 3
  sfq_dff dff_n21_3_s3(.clk(clk), .d(pi21), .q(n21_d3)); // gap 3
  sfq_dff dff_n22_4_s4(.clk(clk), .d(pi22), .q(n22_d4)); // gap 4
  sfq_dff dff_n23_4_s4(.clk(clk), .d(pi23), .q(n23_d4)); // gap 4
  sfq_dff dff_n23_6_s6(.clk(clk), .d(n23_d4), .q(n23_d6)); // gap 2
  sfq_dff dff_n24_4_s4(.clk(clk), .d(pi24), .q(n24_d4)); // gap 4
  sfq_dff dff_n24_7_s7(.clk(clk), .d(n24_d4), .q(n24_d7)); // gap 3
  sfq_dff dff_n25_4_s4(.clk(clk), .d(pi25), .q(n25_d4)); // gap 4
  sfq_dff dff_n25_7_s7(.clk(clk), .d(n25_d4), .q(n25_d7)); // gap 3
  sfq_dff dff_n26_4_s4(.clk(clk), .d(pi26), .q(n26_d4)); // gap 4
  sfq_dff dff_n26_8_s8(.clk(clk), .d(n26_d4), .q(n26_d8)); // gap 4
  sfq_dff dff_n27_4_s4(.clk(clk), .d(pi27), .q(n27_d4)); // gap 4
  sfq_dff dff_n27_8_s8(.clk(clk), .d(n27_d4), .q(n27_d8)); // gap 4
  sfq_dff dff_n27_10_s10(.clk(clk), .d(n27_d8), .q(n27_d10)); // gap 2
  sfq_dff dff_n28_4_s4(.clk(clk), .d(pi28), .q(n28_d4)); // gap 4
  sfq_dff dff_n28_8_s8(.clk(clk), .d(n28_d4), .q(n28_d8)); // gap 4
  sfq_dff dff_n28_11_s11(.clk(clk), .d(n28_d8), .q(n28_d11)); // gap 3
  sfq_dff dff_n29_4_s4(.clk(clk), .d(pi29), .q(n29_d4)); // gap 4
  sfq_dff dff_n29_8_s8(.clk(clk), .d(n29_d4), .q(n29_d8)); // gap 4
  sfq_dff dff_n29_11_s11(.clk(clk), .d(n29_d8), .q(n29_d11)); // gap 3
  sfq_dff dff_n30_4_s4(.clk(clk), .d(pi30), .q(n30_d4)); // gap 4
  sfq_dff dff_n30_8_s8(.clk(clk), .d(n30_d4), .q(n30_d8)); // gap 4
  sfq_dff dff_n30_12_s12(.clk(clk), .d(n30_d8), .q(n30_d12)); // gap 4
  sfq_dff dff_n31_4_s4(.clk(clk), .d(pi31), .q(n31_d4)); // gap 4
  sfq_dff dff_n31_8_s8(.clk(clk), .d(n31_d4), .q(n31_d8)); // gap 4
  sfq_dff dff_n31_12_s12(.clk(clk), .d(n31_d8), .q(n31_d12)); // gap 4
  sfq_dff dff_n31_14_s14(.clk(clk), .d(n31_d12), .q(n31_d14)); // gap 2
  sfq_dff dff_n32_6_s6(.clk(clk), .d(n32), .q(n32_d6)); // gap 4
  sfq_dff dff_n32_10_s10(.clk(clk), .d(n32_d6), .q(n32_d10)); // gap 4
  sfq_dff dff_n32_14_s14(.clk(clk), .d(n32_d10), .q(n32_d14)); // gap 4
  sfq_dff dff_n34_7_s7(.clk(clk), .d(n34), .q(n34_d7)); // gap 4
  sfq_dff dff_n34_11_s11(.clk(clk), .d(n34_d7), .q(n34_d11)); // gap 4
  sfq_dff dff_n34_15_s15(.clk(clk), .d(n34_d11), .q(n34_d15)); // gap 4
  sfq_dff dff_n35_8_s8(.clk(clk), .d(n35), .q(n35_d8)); // gap 4
  sfq_dff dff_n35_12_s12(.clk(clk), .d(n35_d8), .q(n35_d12)); // gap 4
  sfq_dff dff_n35_16_s16(.clk(clk), .d(n35_d12), .q(n35_d16)); // gap 4
  sfq_dff dff_n36_9_s9(.clk(clk), .d(n36), .q(n36_d9)); // gap 4
  sfq_dff dff_n36_13_s13(.clk(clk), .d(n36_d9), .q(n36_d13)); // gap 4
  sfq_dff dff_n36_17_s17(.clk(clk), .d(n36_d13), .q(n36_d17)); // gap 4
  sfq_dff dff_n37_10_s10(.clk(clk), .d(n37), .q(n37_d10)); // gap 4
  sfq_dff dff_n37_14_s14(.clk(clk), .d(n37_d10), .q(n37_d14)); // gap 4
  sfq_dff dff_n38_11_s11(.clk(clk), .d(n38), .q(n38_d11)); // gap 4
  sfq_dff dff_n38_15_s15(.clk(clk), .d(n38_d11), .q(n38_d15)); // gap 4
  sfq_dff dff_n39_12_s12(.clk(clk), .d(n39), .q(n39_d12)); // gap 4
  sfq_dff dff_n39_16_s16(.clk(clk), .d(n39_d12), .q(n39_d16)); // gap 4
  sfq_dff dff_n40_13_s13(.clk(clk), .d(n40), .q(n40_d13)); // gap 4
  sfq_dff dff_n40_17_s17(.clk(clk), .d(n40_d13), .q(n40_d17)); // gap 4
  sfq_dff dff_n41_14_s14(.clk(clk), .d(n41), .q(n41_d14)); // gap 4
  sfq_dff dff_n42_15_s15(.clk(clk), .d(n42), .q(n42_d15)); // gap 4
  sfq_dff dff_n43_16_s16(.clk(clk), .d(n43), .q(n43_d16)); // gap 4
  sfq_dff dff_n44_17_s17(.clk(clk), .d(n44), .q(n44_d17)); // gap 4
  assign po0 = ~n32_d14;
  assign po1 = n34_d15;
  assign po2 = n35_d16;
  assign po3 = n36_d17;
  assign po4 = n37_d14;
  assign po5 = n38_d15;
  assign po6 = n39_d16;
  assign po7 = n40_d17;
  assign po8 = n41_d14;
  assign po9 = n42_d15;
  assign po10 = n43_d16;
  assign po11 = n44_d17;
  assign po12 = n45;
  assign po13 = n46;
  assign po14 = n47;
  assign po15 = n48;
  assign po16 = n48_p1;
endmodule
